#ifndef AMDJ_QUEUE_SEGMENT_FILE_H_
#define AMDJ_QUEUE_SEGMENT_FILE_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "geom/units.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace amdj::queue {

/// An unsorted on-disk pile of encoded records, the backing store of one
/// hybrid-queue partition (the paper stores every partition beyond the
/// in-memory heap "on disk as merely unsorted piles", Section 4.4).
///
/// The pile is a byte stream: records are appended as encoded bytes (see
/// queue/spill_codec.h) and may straddle page boundaries, so every page but
/// the last is full. Whole pages are written synchronously as the stream
/// grows; the tail stays in a write buffer until it fills a page. ReadAll
/// returns the whole stream in append order. Page reads/writes are counted
/// into the optional JoinStats sink (queue_page_reads / queue_page_writes).
///
/// Fault contract: a failed page write frees the page it allocated and
/// keeps the unwritten bytes buffered (count() already covers their
/// records), so the next Append or ReadAll on a healed disk retries the
/// write and loses nothing. A failed read leaves the pile untouched.
class SegmentFile {
 public:
  /// Ownership is not taken of `disk` or `stats`.
  SegmentFile(storage::DiskManager* disk, JoinStats* stats);
  ~SegmentFile();

  SegmentFile(SegmentFile&& other) noexcept;
  SegmentFile& operator=(SegmentFile&& other) noexcept;
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// Appends `size` bytes holding `records` encoded records, then writes
  /// out every page the buffered stream has filled. The bytes are staged
  /// (and counted) even when that write fails; they are refused only when
  /// retrying an earlier failed write fails again.
  Status Append(const void* bytes, size_t size, uint64_t records = 1);

  /// Resizes `out` to byte_size() and fills it with the whole stream in
  /// append order: the flushed pages, then the buffered tail.
  Status ReadAll(std::vector<char>* out);

  /// Releases all pages back to the disk manager and empties the pile.
  void Drop();

  /// The page ids holding flushed bytes, in append order (all full).
  const std::vector<storage::PageId>& pages() const { return pages_; }

  /// Bytes staged in the write buffer (not yet on any page).
  size_t buffered_bytes() const { return buffer_.size(); }

  /// Records appended (on disk + buffered).
  uint64_t count() const { return count_; }
  /// Bytes appended (on disk + buffered).
  uint64_t byte_size() const {
    return static_cast<uint64_t>(pages_.size()) * storage::kPageSize +
           buffer_.size();
  }

  /// Inclusive lower bound of the key range this segment holds; used by
  /// HybridQueue to route insertions and order swap-ins.
  geom::KeyVal lower_bound = geom::KeyVal::Zero();

 private:
  /// Writes every full page at the front of the buffer (the retry after a
  /// failed write). Unwritten bytes stay staged.
  Status FlushFullPages();
  /// Allocates a page and writes kPageSize bytes at `page` to it; on
  /// failure the page is freed again and nothing is recorded.
  Status WritePage(const char* page);
  void FreePages();

  storage::DiskManager* disk_;
  JoinStats* stats_;
  uint64_t count_ = 0;
  std::vector<storage::PageId> pages_;
  std::vector<char> buffer_;  // unwritten tail; < one page unless a write failed
};

}  // namespace amdj::queue

#endif  // AMDJ_QUEUE_SEGMENT_FILE_H_
