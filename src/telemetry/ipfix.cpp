#include "telemetry/ipfix.h"

#include <iterator>

#include "common/wire.h"

namespace flock {
namespace {

// IPFIX is big-endian on the wire.
constexpr auto kBig = wire::Endian::kBig;

// Field layout of the flow template (shared by encoder and the tests; the
// decoder never assumes it).
struct WireField {
  std::uint16_t id;
  std::uint16_t length;
  std::uint32_t enterprise;  // 0 = IANA
};
constexpr WireField kFlowFields[] = {
    {8, 4, 0},                              // sourceIPv4Address
    {12, 4, 0},                             // destinationIPv4Address
    {7, 2, 0},                              // sourceTransportPort
    {11, 2, 0},                             // destinationTransportPort
    {2, 8, 0},                              // packetDeltaCount
    {1, 8, kFlockEnterpriseNumber},         // retransmissions
    {2, 4, kFlockEnterpriseNumber},         // meanRttMicros
    {3, 4, kFlockEnterpriseNumber},         // pathSetId
    {4, 4, kFlockEnterpriseNumber},         // takenPathIndex
};

constexpr std::size_t kRecordBytes = 4 + 4 + 2 + 2 + 8 + 8 + 4 + 4 + 4;

void append_template_set(std::vector<std::uint8_t>& msg) {
  wire::put<std::uint16_t, kBig>(msg, 2);  // set id 2 = template set
  std::uint16_t set_len = 4 + 4;  // set header + template header
  for (const WireField& f : kFlowFields) set_len += f.enterprise ? 8 : 4;
  wire::put<std::uint16_t, kBig>(msg, set_len);
  wire::put<std::uint16_t, kBig>(msg, kFlowTemplateId);
  wire::put<std::uint16_t, kBig>(msg, std::size(kFlowFields));
  for (const WireField& f : kFlowFields) {
    wire::put<std::uint16_t, kBig>(msg, f.enterprise ? f.id | 0x8000u : f.id);
    wire::put<std::uint16_t, kBig>(msg, f.length);
    if (f.enterprise) wire::put<std::uint32_t, kBig>(msg, f.enterprise);
  }
}

void append_record(std::vector<std::uint8_t>& msg, const FlowRecord& r) {
  wire::put<std::uint32_t, kBig>(msg, r.src_addr);
  wire::put<std::uint32_t, kBig>(msg, r.dst_addr);
  wire::put<std::uint16_t, kBig>(msg, r.src_port);
  wire::put<std::uint16_t, kBig>(msg, r.dst_port);
  wire::put<std::uint64_t, kBig>(msg, r.packets);
  wire::put<std::uint64_t, kBig>(msg, r.retransmissions);
  wire::put<std::uint32_t, kBig>(msg, r.mean_rtt_us);
  wire::put<std::uint32_t, kBig>(msg, r.path_set);
  wire::put<std::uint32_t, kBig>(msg, r.taken_path);
}

}  // namespace

const char* to_string(IpfixHeaderStatus status) {
  switch (status) {
    case IpfixHeaderStatus::kOk: return "ok";
    case IpfixHeaderStatus::kShortHeader: return "short_header";
    case IpfixHeaderStatus::kBadVersion: return "bad_version";
    case IpfixHeaderStatus::kLengthMismatch: return "length_mismatch";
  }
  return "unknown";
}

IpfixHeaderStatus peek_header(const std::uint8_t* data, std::size_t len, IpfixHeader* out) {
  if (data == nullptr || len < kIpfixHeaderBytes) return IpfixHeaderStatus::kShortHeader;
  if (wire::load<std::uint16_t, kBig>(data) != kIpfixVersion) {
    return IpfixHeaderStatus::kBadVersion;
  }
  const auto length = wire::load<std::uint16_t, kBig>(data + 2);
  // A UDP datagram carries exactly one message, so the header's own length
  // claim must match what came off the wire — anything else is truncation or
  // trailing garbage, and the body parsers must never trust it.
  if (length != len) return IpfixHeaderStatus::kLengthMismatch;
  if (out != nullptr) {
    out->length = length;
    out->export_time = wire::load<std::uint32_t, kBig>(data + 4);
    out->sequence = wire::load<std::uint32_t, kBig>(data + 8);
    out->observation_domain = wire::load<std::uint32_t, kBig>(data + 12);
  }
  return IpfixHeaderStatus::kOk;
}

std::optional<std::uint32_t> peek_export_time(const std::uint8_t* data, std::size_t len) {
  if (data == nullptr || len < kIpfixHeaderBytes) return std::nullopt;
  if (wire::load<std::uint16_t, kBig>(data) != kIpfixVersion) return std::nullopt;
  return wire::load<std::uint32_t, kBig>(data + 4);
}

std::optional<std::uint32_t> peek_export_time(const std::vector<std::uint8_t>& message) {
  return peek_export_time(message.data(), message.size());
}

std::optional<std::uint32_t> peek_record_count(const std::uint8_t* data, std::size_t len) {
  IpfixHeader header;
  if (peek_header(data, len, &header) != IpfixHeaderStatus::kOk) return std::nullopt;
  wire::SpanReader<kBig> r{data + kIpfixHeaderBytes, len - kIpfixHeaderBytes};

  // Template id -> record length, for templates announced in this message.
  std::unordered_map<std::uint16_t, std::size_t> record_lengths;
  std::uint32_t records = 0;
  while (r.remaining > 0) {
    std::uint16_t set_id, set_len;
    if (!r.get(set_id) || !r.get(set_len) || set_len < 4 ||
        static_cast<std::size_t>(set_len - 4) > r.remaining) {
      return std::nullopt;
    }
    wire::SpanReader<kBig> set{r.p, static_cast<std::size_t>(set_len - 4)};
    if (!r.skip(set_len - 4)) return std::nullopt;
    if (set_id == 2) {
      while (set.remaining >= 4) {
        std::uint16_t tid, field_count;
        if (!set.get(tid) || !set.get(field_count)) return std::nullopt;
        std::size_t record_length = 0;
        for (std::uint16_t f = 0; f < field_count; ++f) {
          std::uint16_t id, flen;
          if (!set.get(id) || !set.get(flen)) return std::nullopt;
          if ((id & 0x8000u) && !set.skip(4)) return std::nullopt;
          record_length += flen;
        }
        record_lengths[tid] = record_length;
      }
    } else if (set_id >= 256) {
      const auto it = record_lengths.find(set_id);
      if (it != record_lengths.end() && it->second > 0) {
        records += static_cast<std::uint32_t>(set.remaining / it->second);
      }
    }
  }
  return records;
}

std::optional<std::uint32_t> peek_record_count(const std::vector<std::uint8_t>& message) {
  return peek_record_count(message.data(), message.size());
}

std::vector<std::vector<std::uint8_t>> IpfixEncoder::encode(
    const std::vector<FlowRecord>& records, std::uint32_t export_time) {
  std::vector<std::vector<std::uint8_t>> messages;
  std::size_t i = 0;
  do {
    std::vector<std::uint8_t> msg;
    // Message header (length patched at the end).
    wire::put<std::uint16_t, kBig>(msg, kIpfixVersion);
    wire::put<std::uint16_t, kBig>(msg, 0);
    wire::put<std::uint32_t, kBig>(msg, export_time);
    wire::put<std::uint32_t, kBig>(msg, sequence_);
    wire::put<std::uint32_t, kBig>(msg, options_.observation_domain);
    append_template_set(msg);

    // Data set header.
    const std::size_t set_start = msg.size();
    wire::put<std::uint16_t, kBig>(msg, kFlowTemplateId);
    wire::put<std::uint16_t, kBig>(msg, 0);  // patched below
    std::uint32_t in_this_message = 0;
    while (i < records.size() && msg.size() + kRecordBytes <= options_.max_message_bytes) {
      append_record(msg, records[i]);
      ++i;
      ++in_this_message;
    }
    sequence_ += in_this_message;

    wire::store<std::uint16_t, kBig>(msg.size() - set_start, msg.data() + set_start + 2);
    wire::store<std::uint16_t, kBig>(msg.size(), msg.data() + 2);
    messages.push_back(std::move(msg));
  } while (i < records.size());
  return messages;
}

bool IpfixDecoder::decode(const std::vector<std::uint8_t>& message,
                          std::vector<FlowRecord>& out) {
  const std::size_t initial_out = out.size();
  auto fail = [&] {
    out.resize(initial_out);
    ++stats_.malformed_messages;
    return false;
  };

  IpfixHeader header;
  if (peek_header(message.data(), message.size(), &header) != IpfixHeaderStatus::kOk) {
    return fail();
  }
  const std::uint32_t domain = header.observation_domain;
  wire::SpanReader<kBig> r{message.data() + kIpfixHeaderBytes, message.size() - kIpfixHeaderBytes};

  while (r.remaining > 0) {
    std::uint16_t set_id, set_len;
    if (!r.get(set_id) || !r.get(set_len) || set_len < 4 ||
        static_cast<std::size_t>(set_len - 4) > r.remaining) {
      return fail();
    }
    wire::SpanReader<kBig> set{r.p, static_cast<std::size_t>(set_len - 4)};
    if (!r.skip(set_len - 4)) return fail();

    if (set_id == 2) {
      // Template set: may contain several templates.
      ++stats_.template_sets;
      while (set.remaining >= 4) {
        std::uint16_t tid, field_count;
        if (!set.get(tid) || !set.get(field_count)) return fail();
        Template tmpl;
        for (std::uint16_t f = 0; f < field_count; ++f) {
          std::uint16_t id, flen;
          if (!set.get(id) || !set.get(flen)) return fail();
          FieldSpec spec;
          spec.length = flen;
          if (id & 0x8000u) {
            spec.id = static_cast<std::uint16_t>(id & 0x7FFFu);
            if (!set.get(spec.enterprise)) return fail();
          } else {
            spec.id = id;
          }
          tmpl.record_length += flen;
          tmpl.fields.push_back(spec);
        }
        const std::uint64_t key = (static_cast<std::uint64_t>(domain) << 16) | tid;
        templates_[key] = std::move(tmpl);
      }
    } else if (set_id >= 256) {
      const std::uint64_t key = (static_cast<std::uint64_t>(domain) << 16) | set_id;
      auto it = templates_.find(key);
      if (it == templates_.end()) {
        ++stats_.skipped_sets;  // data before template: legal, we drop it
        continue;
      }
      const Template& tmpl = it->second;
      if (tmpl.record_length == 0) return fail();
      while (set.remaining >= tmpl.record_length) {
        FlowRecord rec;
        for (const FieldSpec& f : tmpl.fields) {
          std::uint64_t v = 0;
          // The loop guard guarantees a full record remains, but the check
          // stays explicit: field lengths are attacker-controlled bytes and
          // must never be able to walk the cursor past the set.
          if (!set.read_uint(f.length, v)) return fail();
          if (f.enterprise == 0) {
            switch (f.id) {
              case 8: rec.src_addr = static_cast<std::uint32_t>(v); break;
              case 12: rec.dst_addr = static_cast<std::uint32_t>(v); break;
              case 7: rec.src_port = static_cast<std::uint16_t>(v); break;
              case 11: rec.dst_port = static_cast<std::uint16_t>(v); break;
              case 2: rec.packets = v; break;
              default: break;  // unknown IANA field: ignored
            }
          } else if (f.enterprise == kFlockEnterpriseNumber) {
            switch (f.id) {
              case 1: rec.retransmissions = v; break;
              case 2: rec.mean_rtt_us = static_cast<std::uint32_t>(v); break;
              case 3: rec.path_set = static_cast<std::int32_t>(v); break;
              case 4: rec.taken_path = static_cast<std::int32_t>(v); break;
              default: break;
            }
          }
        }
        out.push_back(rec);
        ++stats_.records;
      }
    }
    // set ids 3..255 are reserved; silently skipped by the loop structure.
  }
  ++stats_.messages;
  return true;
}

}  // namespace flock
