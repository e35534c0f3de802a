// One byte codec for the tree's binary formats: IPFIX on the wire
// (big-endian) and the little-endian files — datagram logs (net/dgram_log),
// traces (eval/trace_io) and tracker snapshots (pipeline/temporal_tracker).
// Fields are fixed-width numbers in the byte order the caller names, on any
// host. Header-only, so the IPFIX decode loop inlines every read.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace flock::wire {

enum class Endian { kLittle, kBig };

// The unsigned integer as wide as T.
template <typename T>
using Bits = std::conditional_t<
    sizeof(T) == 1, std::uint8_t,
    std::conditional_t<sizeof(T) == 2, std::uint16_t,
                       std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>>>;

// Host <-> wire byte order of a T field (the same swap both ways).
template <typename T, Endian E>
Bits<T> to_order(Bits<T> bits) {
  static_assert(std::is_arithmetic_v<T> && sizeof(T) <= 8, "wire fields are numbers");
  constexpr bool native = (E == Endian::kLittle) == (std::endian::native == std::endian::little);
  if constexpr (native || sizeof(T) == 1) return bits;
  if constexpr (!native && sizeof(T) == 2) return __builtin_bswap16(bits);
  if constexpr (!native && sizeof(T) == 4) return __builtin_bswap32(bits);
  if constexpr (!native && sizeof(T) == 8) return __builtin_bswap64(bits);
}

template <typename T, Endian E = Endian::kLittle>
void store(std::type_identity_t<T> v, std::uint8_t* out) {
  const Bits<T> bits = to_order<T, E>(std::bit_cast<Bits<T>>(v));
  std::memcpy(out, &bits, sizeof bits);
}

template <typename T, Endian E = Endian::kLittle>
T load(const std::uint8_t* in) {
  Bits<T> bits;
  std::memcpy(&bits, in, sizeof bits);
  return std::bit_cast<T>(to_order<T, E>(bits));
}

// Appends a field. T is always given, so each call site states the width.
template <typename T, Endian E = Endian::kLittle>
void put(std::vector<std::uint8_t>& out, std::type_identity_t<T> v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  store<T, E>(v, out.data() + at);
}

template <typename T, Endian E = Endian::kLittle>
void put(std::ostream& os, std::type_identity_t<T> v) {
  std::uint8_t bytes[sizeof(T)];
  store<T, E>(v, bytes);
  os.write(reinterpret_cast<const char*>(bytes), sizeof bytes);
}

// Bounds-checked cursor over a buffer: a read either consumes its bytes and
// returns true, or returns false and leaves the cursor where it was.
template <Endian E>
struct SpanReader {
  const std::uint8_t* p;
  std::size_t remaining;

  template <typename T>
  bool get(T& v) {
    if (remaining < sizeof(T)) return false;
    v = load<T, E>(p);
    p += sizeof(T);
    remaining -= sizeof(T);
    return true;
  }
  bool skip(std::size_t n) {
    if (remaining < n) return false;
    p += n;
    remaining -= n;
    return true;
  }
  // Unsigned field of any width (IPFIX reduced-size encoding). Values wider
  // than 8 bytes keep only their low 64 bits.
  bool read_uint(std::size_t len, std::uint64_t& v) {
    if (remaining < len) return false;
    v = 0;
    for (std::size_t i = 0; i < len; ++i) v = (v << 8) | p[E == Endian::kBig ? i : len - 1 - i];
    p += len;
    remaining -= len;
    return true;
  }
};

// Reads a file format's fields. A short read, and every rejection the
// format raises through fail(), throws std::runtime_error("<format>: <why>").
class StreamReader {
 public:
  // `format` must outlive the reader.
  StreamReader(std::istream& is, const char* format) : is_(is), format_(format) {}

  template <typename T, Endian E = Endian::kLittle>
  T get() {
    std::uint8_t bytes[sizeof(T)];
    read(bytes, sizeof bytes);
    return load<T, E>(bytes);
  }
  void read(void* out, std::size_t n) {
    is_.read(static_cast<char*>(out), static_cast<std::streamsize>(n));
    if (!is_) fail("truncated input");
  }
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(std::string(format_) + ": " + why);
  }

 private:
  std::istream& is_;
  const char* format_;
};

// File header: four magic bytes, then a u32 version.
using Magic = char[4];

inline void put_header(std::ostream& os, const Magic& magic, std::uint32_t version) {
  os.write(magic, sizeof(Magic));
  put<std::uint32_t>(os, version);
}

// Checks the magic and returns the version; versions 1..current are readable.
inline std::uint32_t get_header(StreamReader& in, const Magic& magic, std::uint32_t current) {
  char got[sizeof(Magic)];
  in.read(got, sizeof got);
  if (std::memcmp(got, magic, sizeof got) != 0) in.fail("bad magic");
  const auto version = in.get<std::uint32_t>();
  if (version < 1 || version > current) in.fail("unsupported version " + std::to_string(version));
  return version;
}

// Start value of the hashes the formats record (router fingerprints, tracker
// class partitions). It is one digit short of the standard FNV-1a offset
// basis 14695981039346656037; it stays, because recorded files carry them.
inline constexpr std::uint64_t kFnvSeed = 1469598103934665603ull;

// 64-bit FNV-1a over v's eight bytes, least significant first, continuing h.
constexpr std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace flock::wire
