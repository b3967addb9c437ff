#ifndef AMDJ_CORE_PAIR_ENTRY_H_
#define AMDJ_CORE_PAIR_ENTRY_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "geom/metric.h"
#include "geom/rect.h"
#include "queue/spill_codec.h"

namespace amdj::core {

/// What one side of a queued pair refers to.
enum class RefKind : uint8_t {
  kNode = 0,    ///< An R-tree node; `id` is its page id.
  kObject = 1,  ///< A data object; `id` is the caller-assigned object id.
};

/// One side of a pair: an R-tree node or an object, with its MBR.
struct PairRef {
  geom::Rect rect;
  uint32_t id = 0;
  RefKind kind = RefKind::kNode;
  /// Node level (0 = leaf); 0 for objects.
  uint8_t level = 0;

  bool IsObject() const { return kind == RefKind::kObject; }
};

/// An element of the main queue: a pair of refs plus bookkeeping for the
/// adaptive multi-stage algorithms. Trivially copyable; the hybrid queue
/// spills it through SpillCodec<PairEntry> (below).
struct PairEntry {
  /// MinDistanceKey(r.rect, s.rect); the priority. A metric *key* — the
  /// squared distance under L2 (see geom::DistanceToKey) — not a distance;
  /// KeyToDistance converts at emission. Strongly typed: comparing it to a
  /// distance-space value is a compile error (geom/units.h).
  geom::KeyVal key = geom::KeyVal::Zero();
  PairRef r;
  PairRef s;

  /// Cutoff key (eDmax) in effect when this pair was partially expanded in
  /// an earlier aggressive stage; kNeverExpanded if it has not been
  /// expanded. Compensation sweeps use it to skip the already-examined
  /// sweep prefix. Same key space as `key`.
  geom::KeyVal prior_cutoff = kNeverExpanded;
  /// Sweep axis used by that earlier expansion (-1 = none).
  int8_t prior_axis = -1;
  /// Sweep direction used by that earlier expansion (0 fwd, 1 bwd).
  int8_t prior_dir = 0;

  /// Sentinel below every real key (keys are >= 0).
  static constexpr geom::KeyVal kNeverExpanded{-1.0};

  bool IsObjectPair() const { return r.IsObject() && s.IsObject(); }
  bool WasExpanded() const { return prior_cutoff >= geom::KeyVal::Zero(); }

  std::string ToString() const;
};

/// Main-queue order: ascending key (equivalently ascending distance — the
/// key is monotone in it); with objects_first (the default) ties pop object
/// pairs before node pairs (equal-distance results surface without extra
/// expansions), then ids for determinism. objects_first = false is
/// kind-blind, modelling a tie-naive implementation (see
/// JoinOptions::tie_break).
struct PairEntryCompare {
  bool objects_first = true;

  bool operator()(const PairEntry& a, const PairEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    if (objects_first) {
      const bool ao = a.IsObjectPair();
      const bool bo = b.IsObjectPair();
      if (ao != bo) return ao;
    }
    if (a.r.id != b.r.id) return a.r.id < b.r.id;
    return a.s.id < b.s.id;
  }
};

/// Builds a pair entry (computing its key under `metric`) from two refs.
PairEntry MakePair(const PairRef& r, const PairRef& s,
                   geom::Metric metric = geom::Metric::kL2);

/// True if the pair should be suppressed in self-join mode: both sides are
/// objects carrying the same id.
inline bool IsSelfPair(const PairRef& r, const PairRef& s) {
  return r.IsObject() && s.IsObject() && r.id == s.id;
}

/// One produced join result. `distance` is a raw double on purpose: this
/// struct is the user-facing/serialization boundary (external sorter spill
/// pages, CLI output, golden files) — by definition of the output format it
/// is distance space, so there is no ambiguity left for a strong type to
/// protect. geom::KeyToDistance(...).raw() converts at emission; this is a
/// documented raw-view boundary (see geom/units.h).
struct ResultPair {
  double distance = 0.0;
  uint32_t r_id = 0;
  uint32_t s_id = 0;

  bool operator==(const ResultPair& o) const {
    return distance == o.distance && r_id == o.r_id && s_id == o.s_id;
  }
};

}  // namespace amdj::core

namespace amdj::queue {

/// The main queue's spill record. An object pair that was never expanded
/// (the bulk of every spilled pile) is written short: a tag byte, the key
/// and the two object ids, 17 bytes. Every other pair — node pairs, the
/// mixed node/object pairs of unidirectional HS, and any pair carrying
/// prior_* expansion state — is written as a tag byte plus its bytes
/// verbatim and decodes byte-identical.
///
/// A short record decodes with both MBRs zeroed. That is safe because an
/// object pair is only ever emitted or compared once queued: emission reads
/// key, r.id and s.id, and PairEntryCompare reads key, objectness and ids.
/// Nothing expands an object pair, so nothing reads its MBRs.
template <>
struct SpillCodec<core::PairEntry> {
  static constexpr char kFullTag = 0;
  static constexpr char kObjectPairTag = 1;
  static constexpr size_t kObjectPairSize =
      1 + sizeof(geom::KeyVal) + 2 * sizeof(uint32_t);
  static constexpr size_t kMaxSize = 1 + sizeof(core::PairEntry);

  /// True when `e` round-trips through the short form (MBRs aside).
  static bool IsShort(const core::PairEntry& e) {
    return e.IsObjectPair() && e.r.level == 0 && e.s.level == 0 &&
           e.prior_cutoff == core::PairEntry::kNeverExpanded &&
           e.prior_axis == -1 && e.prior_dir == 0;
  }

  static size_t Encode(const core::PairEntry& e, char* out) {
    if (!IsShort(e)) {
      out[0] = kFullTag;
      std::memcpy(out + 1, &e, sizeof(e));
      return kMaxSize;
    }
    out[0] = kObjectPairTag;
    std::memcpy(out + 1, &e.key, sizeof(e.key));
    std::memcpy(out + 1 + sizeof(e.key), &e.r.id, sizeof(e.r.id));
    std::memcpy(out + 1 + sizeof(e.key) + sizeof(e.r.id), &e.s.id,
                sizeof(e.s.id));
    return kObjectPairSize;
  }

  static size_t Decode(const char* in, core::PairEntry* out) {
    if (in[0] == kFullTag) {
      std::memcpy(out, in + 1, sizeof(*out));
      return kMaxSize;
    }
    *out = core::PairEntry();
    out->r.kind = core::RefKind::kObject;
    out->s.kind = core::RefKind::kObject;
    std::memcpy(&out->key, in + 1, sizeof(out->key));
    std::memcpy(&out->r.id, in + 1 + sizeof(out->key), sizeof(out->r.id));
    std::memcpy(&out->s.id, in + 1 + sizeof(out->key) + sizeof(out->r.id),
                sizeof(out->s.id));
    return kObjectPairSize;
  }
};

}  // namespace amdj::queue

#endif  // AMDJ_CORE_PAIR_ENTRY_H_
