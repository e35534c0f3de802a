// The input to every fault localization scheme: the topology/routing view
// plus the columnar FlowTable of observations for one epoch (§2.2).
//
// A flow observation carries the metric pair (bad_packets, packets_sent) and
// its routing information:
//   * taken_path >= 0  — the concrete path is known (active probes A1/A2 or
//     INT); taken_path indexes into the flow's path set.
//   * taken_path == -1 — only the ECMP candidate set is known (passive
//     telemetry P).
// Host access links are carried separately from the interned switch-level
// path sets so that millions of flows can share one PathSet per ToR pair.
//
// Observations are stored group-major and weight-deduplicated (see
// core/flow_table.h); FlowObservation is the ingestion/expansion unit, not
// the storage unit.
//
// Lifetime: an InferenceInput does not own the Topology or the EcmpRouter —
// epochs are cheap, routing state is not. What it *does* own, explicitly, is
// a shared InferenceContext binding: every input minted for an epoch holds a
// shared_ptr to the context naming the (topology, router) pair it was joined
// against, so the binding provably travels with the snapshot across the
// localizer-pool thread boundary. The referents must outlive every holder of
// the context; StreamingPipeline asserts at teardown that no context
// reference escaped it (see pipeline.h).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "core/flow_table.h"
#include "topology/ecmp.h"
#include "topology/topology.h"

namespace flock {

struct FlowObservation {
  ComponentId src_link = kInvalidComponent;  // access link of the source host
  ComponentId dst_link = kInvalidComponent;  // access link of the dest host (invalid for
                                             // host->core probes)
  PathSetId path_set = kInvalidPathSet;      // switch-level ECMP candidates
  std::int32_t taken_path = -1;              // index into path set, -1 if unknown
  std::uint32_t packets_sent = 0;
  std::uint32_t bad_packets = 0;

  bool path_known() const { return taken_path >= 0; }
};

// The (topology, router) pair an epoch's observations were joined against.
// Shared by every InferenceInput of a pipeline run; the pointees are borrowed
// and must outlive all holders.
struct InferenceContext {
  const Topology* topo = nullptr;
  const EcmpRouter* router = nullptr;
};

class InferenceInput {
 public:
  // Standalone use (tests, examples, the synchronous eval path): mints a
  // private context over the caller's objects. dedup_rows=false keeps one
  // row per observation — the measured A/B lever of bench/micro_inference.
  InferenceInput(const Topology& topo, const EcmpRouter& router, bool dedup_rows = true)
      : ctx_(std::make_shared<const InferenceContext>(InferenceContext{&topo, &router})),
        table_(dedup_rows) {}

  // Pipeline use: every epoch snapshot shares one context so outstanding
  // references are countable at teardown.
  explicit InferenceInput(std::shared_ptr<const InferenceContext> ctx)
      : ctx_(std::move(ctx)) {}

  // Pipeline use with arena-recycled storage: adopt an (empty, reset) table
  // whose column/index capacity survived a previous epoch (common/arena.h).
  InferenceInput(std::shared_ptr<const InferenceContext> ctx, FlowTable table)
      : ctx_(std::move(ctx)), table_(std::move(table)) {}

  // Surrender the table for arena recycling; this input stays valid but
  // empty. Called once the sink has consumed the epoch.
  FlowTable release_table() { return std::move(table_); }

  const Topology& topology() const { return *ctx_->topo; }
  const EcmpRouter& router() const { return *ctx_->router; }
  const std::shared_ptr<const InferenceContext>& context() const { return ctx_; }

  void add(const FlowObservation& obs) { table_.add(obs); }
  void reserve(std::size_t n) { table_.reserve(n); }

  const FlowTable& table() const { return table_; }

  // Raw observation count (dedup weights included) and stored row count.
  std::size_t num_flows() const { return static_cast<std::size_t>(table_.num_observations()); }
  std::size_t num_rows() const { return table_.num_rows(); }
  // Dedup-weight clamps at the uint32 ceiling (see core/flow_table.h).
  std::uint64_t num_weight_saturations() const { return table_.num_weight_saturations(); }

  // Append another input joined against the same (topology, router) pair,
  // as if its observations had been add()ed here (the epoch-barrier merge).
  void merge_from(InferenceInput&& other) {
    assert(ctx_->topo == other.ctx_->topo && ctx_->router == other.ctx_->router);
    table_.merge_from(std::move(other.table_));
  }

  // The observation multiset as per-flow records, for tests and reference
  // computations; hot paths iterate table().groups().
  std::vector<FlowObservation> expanded_flows() const { return table_.expanded(); }

  // Materialized component sequence of a known-path flow: src access link,
  // every link/device of the taken switch path, dst access link.
  std::vector<ComponentId> known_path_components(const FlowObservation& obs) const;

  // Number of ECMP candidates of a flow (1 when the path is known).
  std::int32_t width(const FlowObservation& obs) const;

 private:
  std::shared_ptr<const InferenceContext> ctx_;
  FlowTable table_;
};

// Result of one localization run.
struct LocalizationResult {
  std::vector<ComponentId> predicted;
  // Log posterior of the returned hypothesis (PGM schemes: Flock, Gibbs,
  // Sherlock) — the observations' log likelihood plus the component priors,
  // despite the field's name. ResultSink sums it into shard_score_sum.
  double log_likelihood = 0.0;
  std::int64_t hypotheses_scanned = 0;
  // Lookups the likelihood engine's dense S(x) memo served without a column
  // scan (see core/likelihood_engine.h); rides into PipelineStats::memo_hits.
  std::uint64_t memo_hits = 0;
  // Applies that reused the memo's one-time allocation instead of paying two
  // O(w) clears (stamp invalidation; see core/likelihood_engine.h).
  std::uint64_t memo_table_reuses = 0;
  // Intra-epoch parallelism counters for this localize call (zero when it
  // ran serial; see common/parallel_for.h): chunks executed, chunks taken by
  // helper threads rather than the calling thread, and total ns inside chunk
  // bodies summed across threads.
  std::uint64_t parallel_chunks = 0;
  std::uint64_t parallel_steals = 0;
  std::uint64_t parallel_ns = 0;
  double seconds = 0.0;
};

// Common interface for Flock and all baselines.
class Localizer {
 public:
  virtual ~Localizer() = default;
  virtual LocalizationResult localize(const InferenceInput& input) const = 0;
  virtual const char* name() const = 0;
};

}  // namespace flock
