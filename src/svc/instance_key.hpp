// svc/instance_key.hpp — content-addressed identity for RMT instances.
//
// The serving layer memoizes decide/analyze/simulate answers, which is
// sound because every query the engine exposes is a pure function of the
// instance (the PODC'16 characterizations are exact). Memoization needs an
// identity, and that identity is a content hash of the *canonical* text
// form of the instance (io::serialize_instance):
//   * Graph::edges() lists edges in canonical (a<b, ascending) order and
//     AdversaryStructure keeps its antichain in canonical sorted form, so
//     two semantically equal instances built in different orders serialize
//     to the same bytes;
//   * views are emitted as extras over the ad hoc floor, so "knowledge
//     k-hop 2" and the equivalent explicit custom views collide, as they
//     must — they denote the same γ.
//
// Stability contract (frozen): the key is part of every on-disk artifact
// that mentions it (rmt.response/1 lines, cached manifests), so its
// definition never changes within schema version 1:
//   lo = FNV-1a-64 over the canonical text (offset basis
//        0xcbf29ce484222325, prime 0x100000001b3);
//   hi = splitmix64 finalizer of lo (the exec::derive_seed mix).
// The key is 128 bits wide but carries only lo's 64 bits of information:
// splitmix64 is a bijection, so hi is a function of lo.
// Worked example, also asserted by tests/test_svc_key.cpp: the 3-path
// instance "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\n
// receiver 2\nknowledge adhoc\n" has key bc6adf4f00f0be648b62687f484b0ff8.
//
// Cost: instance_key streams the canonical text through FNV-1a as
// io::write_canonical writes it, with no string in between. The byte-serial
// FNV-1a chain (a multiply per byte) is most of it: about 7 µs on a
// 2.4 KB `cold_mix` instance, 4 µs of that the chain itself. The serving
// path computes it once per distinct raw request text: svc/instance_memo.hpp
// keeps text → key, matching texts byte for byte (never by this hash), so a
// repeated request reuses the key without building the instance.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "instance/instance.hpp"

namespace rmt::svc {

/// Content key; hi/lo as documented above. Two distinct canonical texts
/// get equal keys exactly when their FNV-1a-64 values collide — a 64-bit,
/// non-cryptographic hash, so collisions are possible, and the cache and
/// the store compare keys only, never the canonical text.
struct InstanceKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const InstanceKey&, const InstanceKey&) = default;

  /// 32 lowercase hex chars, hi then lo — the form artifacts carry.
  std::string to_hex() const;
};

/// FNV-1a-64's offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a-64 over arbitrary bytes (the frozen `lo` half). Exposed so the
/// cache can shard by the same mix without re-deriving text. `h` is the
/// hash of the bytes before these, so a text hashed in pieces gets the
/// hash of the whole.
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h = kFnvOffsetBasis);

/// The canonical text the key is computed over: io::serialize_instance.
/// (A named alias so call sites say what they mean.)
std::string canonical_instance_text(const Instance& inst);

/// Key of an instance = key of its canonical text, hashed as
/// io::write_canonical writes it: no text, edge list or number string is
/// built.
InstanceKey instance_key(const Instance& inst);
InstanceKey key_of_text(const std::string& canonical_text);

/// The canonical representative of an instance's equivalence class:
/// parse(serialize(inst)). serialize ∘ parse is a fixed point on its
/// output (asserted over every shipped example instance by test_io), so
/// canonicalize(canonicalize(x)) == canonicalize(x) and two instances
/// with equal keys canonicalize identically.
Instance canonicalize(const Instance& inst);

}  // namespace rmt::svc
