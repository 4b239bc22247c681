#include "svc/instance_key.hpp"

#include "io/serialize.hpp"

namespace rmt::svc {

namespace {

// The splitmix64 finalizer, bit-for-bit the mix exec::derive_seed uses.
// Duplicated (three lines) rather than exported from exec so the two
// frozen contracts — campaign seeds, instance keys — stay independently
// auditable.
std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

InstanceKey key_of_fnv(std::uint64_t lo) { return InstanceKey{splitmix64(lo), lo}; }

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string InstanceKey::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(hi >> (4 * i)) & 0xf];
    out[31 - i] = kDigits[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

std::string canonical_instance_text(const Instance& inst) {
  return io::serialize_instance(inst);
}

InstanceKey key_of_text(const std::string& canonical_text) {
  return key_of_fnv(fnv1a64(canonical_text));
}

InstanceKey instance_key(const Instance& inst) {
  std::uint64_t h = kFnvOffsetBasis;
  io::write_canonical(inst, [&h](std::string_view chunk) { h = fnv1a64(chunk, h); });
  return key_of_fnv(h);
}

Instance canonicalize(const Instance& inst) {
  return io::parse_instance_string(canonical_instance_text(inst));
}

}  // namespace rmt::svc
