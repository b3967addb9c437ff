#include "queue/segment_file.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <utility>

namespace amdj::queue {

SegmentFile::SegmentFile(storage::DiskManager* disk, JoinStats* stats)
    : disk_(disk), stats_(stats) {}

SegmentFile::~SegmentFile() { FreePages(); }

SegmentFile::SegmentFile(SegmentFile&& other) noexcept
    : lower_bound(other.lower_bound),
      disk_(std::exchange(other.disk_, nullptr)),
      stats_(other.stats_),
      count_(std::exchange(other.count_, 0)),
      pages_(std::move(other.pages_)),
      buffer_(std::move(other.buffer_)) {
  other.pages_.clear();
  other.buffer_.clear();
}

SegmentFile& SegmentFile::operator=(SegmentFile&& other) noexcept {
  if (this != &other) {
    FreePages();
    lower_bound = other.lower_bound;
    disk_ = std::exchange(other.disk_, nullptr);
    stats_ = other.stats_;
    count_ = std::exchange(other.count_, 0);
    pages_ = std::move(other.pages_);
    buffer_ = std::move(other.buffer_);
    other.pages_.clear();
    other.buffer_.clear();
  }
  return *this;
}

Status SegmentFile::Append(const void* bytes, size_t size, uint64_t records) {
  // A failed write left a full page staged: retry it before accepting more,
  // so appends to a dead disk cannot grow the buffer without bound.
  if (buffer_.size() >= storage::kPageSize) {
    AMDJ_RETURN_IF_ERROR(FlushFullPages());
  }
  const char* src = static_cast<const char*>(bytes);
  const char* const end = src + size;
  count_ += records;
  // Top off the buffered page; then write whole pages straight from the
  // caller's bytes and stage only the tail. On a failed write every byte
  // not yet on disk is staged, to be retried.
  const size_t top = std::min(size, storage::kPageSize - buffer_.size());
  buffer_.insert(buffer_.end(), src, src + top);
  src += top;
  if (buffer_.size() == storage::kPageSize) {
    const Status written = WritePage(buffer_.data());
    if (!written.ok()) {
      buffer_.insert(buffer_.end(), src, end);
      return written;
    }
    buffer_.clear();
  }
  for (; end - src >= static_cast<ptrdiff_t>(storage::kPageSize);
       src += storage::kPageSize) {
    const Status written = WritePage(src);
    if (!written.ok()) {
      buffer_.assign(src, end);
      return written;
    }
  }
  buffer_.insert(buffer_.end(), src, end);
  return Status::OK();
}

Status SegmentFile::FlushFullPages() {
  size_t flushed = 0;
  Status status = Status::OK();
  while (status.ok() && buffer_.size() - flushed >= storage::kPageSize) {
    status = WritePage(buffer_.data() + flushed);
    if (status.ok()) flushed += storage::kPageSize;
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + flushed);
  return status;
}

Status SegmentFile::WritePage(const char* page) {
  const storage::PageId id = disk_->AllocatePage();
  const Status written = disk_->WritePage(id, page);
  if (!written.ok()) {
    // The page is not recorded in pages_: return it to the allocator or it
    // leaks for the disk's lifetime.
    disk_->FreePage(id);
    return written;
  }
  if (stats_ != nullptr) ++stats_->queue_page_writes;
  pages_.push_back(id);
  return Status::OK();
}

Status SegmentFile::ReadAll(std::vector<char>* out) {
  out->resize(byte_size());
  char* dst = out->data();
  for (storage::PageId id : pages_) {
    AMDJ_RETURN_IF_ERROR(disk_->ReadPage(id, dst));
    if (stats_ != nullptr) ++stats_->queue_page_reads;
    dst += storage::kPageSize;
  }
  // An empty buffer's data() may be null, which memcpy must never see.
  if (!buffer_.empty()) std::memcpy(dst, buffer_.data(), buffer_.size());
  return Status::OK();
}

void SegmentFile::Drop() {
  FreePages();
  pages_.clear();
  buffer_.clear();
  count_ = 0;
}

void SegmentFile::FreePages() {
  if (disk_ == nullptr) return;
  for (storage::PageId id : pages_) disk_->FreePage(id);
}

}  // namespace amdj::queue
