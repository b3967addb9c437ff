#ifndef AMDJ_QUEUE_SPILL_CODEC_H_
#define AMDJ_QUEUE_SPILL_CODEC_H_

#include <cstddef>
#include <cstring>

namespace amdj::queue {

/// How HybridQueue<T> writes an entry into a disk segment's byte pile and
/// reads it back. The default is the entry's bytes verbatim; a type whose
/// spilled entries need fewer bytes specializes this template next to its
/// definition (core/pair_entry.h does for PairEntry). A specialization
/// must decode every field the queue's comparator and its consumers read.
template <typename T>
struct SpillCodec {
  /// Upper bound on the bytes Encode writes.
  static constexpr size_t kMaxSize = sizeof(T);

  /// Writes `item` at `out` (room for kMaxSize bytes); returns the bytes
  /// written.
  static size_t Encode(const T& item, char* out) {
    std::memcpy(out, &item, sizeof(T));
    return sizeof(T);
  }

  /// Reads the record at `in` into `*out`; returns the bytes consumed.
  static size_t Decode(const char* in, T* out) {
    std::memcpy(out, in, sizeof(T));
    return sizeof(T);
  }
};

}  // namespace amdj::queue

#endif  // AMDJ_QUEUE_SPILL_CODEC_H_
