#include "storage/disk_manager.h"

#include <cstring>

#include "common/logging.h"

namespace amdj::storage {

void DiskManager::CountRead(PageId page_id) {
  ++stats_.page_reads;
  if (last_read_ != kInvalidPageId && page_id == last_read_ + 1) {
    ++stats_.sequential_reads;
  } else {
    ++stats_.random_reads;
  }
  last_read_ = page_id;
}

void DiskManager::CountWrite(PageId page_id) {
  ++stats_.page_writes;
  if (last_write_ != kInvalidPageId && page_id == last_write_ + 1) {
    ++stats_.sequential_writes;
  } else {
    ++stats_.random_writes;
  }
  last_write_ = page_id;
}

PageId DiskManager::TakeLowestFreePage() {
  ++stats_.pages_allocated;
  if (free_pages_.empty()) return kInvalidPageId;
  return free_pages_.extract(free_pages_.begin()).value();
}

void DiskManager::AddFreePage(PageId page_id) {
  if (!free_pages_.insert(page_id).second) {
    // A double free would let AllocatePage hand this id to two callers.
    AMDJ_LOG(kWarn) << "double free of page " << page_id << " ignored";
  }
}

// ---------------------------------------------------------------------------
// InMemoryDiskManager

PageId InMemoryDiskManager::AllocatePage() {
  const MutexLock lock(&mutex_);
  const PageId reused = TakeLowestFreePage();
  if (reused != kInvalidPageId) return reused;
  pages_.push_back(std::make_unique<char[]>(kPageSize));
  return static_cast<PageId>(pages_.size() - 1);
}

void InMemoryDiskManager::FreePage(PageId page_id) {
  const MutexLock lock(&mutex_);
  if (page_id < pages_.size()) AddFreePage(page_id);
}

Status InMemoryDiskManager::ReadPage(PageId page_id, char* out) {
  const MutexLock lock(&mutex_);
  if (page_id >= pages_.size()) {
    return Status::OutOfRange("read of unallocated page " +
                              std::to_string(page_id));
  }
  CountRead(page_id);
  std::memcpy(out, pages_[page_id].get(), kPageSize);
  return Status::OK();
}

Status InMemoryDiskManager::WritePage(PageId page_id, const char* data) {
  const MutexLock lock(&mutex_);
  if (page_id >= pages_.size()) {
    return Status::OutOfRange("write of unallocated page " +
                              std::to_string(page_id));
  }
  CountWrite(page_id);
  std::memcpy(pages_[page_id].get(), data, kPageSize);
  return Status::OK();
}

uint32_t InMemoryDiskManager::PageCount() const {
  const MutexLock lock(&mutex_);
  return static_cast<uint32_t>(pages_.size());
}

// ---------------------------------------------------------------------------
// FileDiskManager

FileDiskManager::FileDiskManager(const std::string& path, bool persistent)
    : path_(path), persistent_(persistent) {
  if (persistent_) {
    // Keep existing pages; create the file if it does not exist yet. Use
    // the 64-bit tell so files past 2 GiB report the right page count on
    // ABIs where `long` is 32-bit.
    file_ = std::fopen(path.c_str(), "r+b");
    if (file_ == nullptr) file_ = std::fopen(path.c_str(), "w+b");
    if (file_ != nullptr && std::fseek(file_, 0, SEEK_END) == 0) {
#if defined(_WIN32)
      const long long bytes = _ftelli64(file_);
#else
      const off_t bytes = ftello(file_);
#endif
      if (bytes > 0) {
        page_count_ = static_cast<uint32_t>(
            static_cast<unsigned long long>(bytes) / kPageSize);
      }
    }
  } else {
    file_ = std::fopen(path.c_str(), "w+b");
  }
}

FileDiskManager::~FileDiskManager() {
  if (file_ != nullptr) {
    std::fclose(file_);
    if (!persistent_) std::remove(path_.c_str());
  }
}

PageId FileDiskManager::AllocatePage() {
  const MutexLock lock(&mutex_);
  const PageId reused = TakeLowestFreePage();
  return reused != kInvalidPageId ? reused : page_count_++;
}

void FileDiskManager::FreePage(PageId page_id) {
  const MutexLock lock(&mutex_);
  if (page_id < page_count_) AddFreePage(page_id);
}

Status FileDiskManager::SeekToPage(PageId page_id) {
  // int64 arithmetic: PageId (uint32) * kPageSize overflows 32 bits for
  // files past 4 GiB/kPageSize pages; `long` fseek overflows past 2 GiB
  // where long is 32-bit.
  const long long offset =
      static_cast<long long>(page_id) * static_cast<long long>(kPageSize);
#if defined(_WIN32)
  if (_fseeki64(file_, offset, SEEK_SET) != 0) {
#else
  if (fseeko(file_, static_cast<off_t>(offset), SEEK_SET) != 0) {
#endif
    return Status::IOError("seek to page " + std::to_string(page_id) +
                           " failed");
  }
  return Status::OK();
}

Status FileDiskManager::ReadPage(PageId page_id, char* out) {
  const MutexLock lock(&mutex_);
  if (file_ == nullptr) return Status::IOError("backing file not open");
  if (page_id >= page_count_) {
    return Status::OutOfRange("read of unallocated page " +
                              std::to_string(page_id));
  }
  CountRead(page_id);
  AMDJ_RETURN_IF_ERROR(SeekToPage(page_id));
  const size_t n = std::fread(out, 1, kPageSize, file_);
  if (n < kPageSize) {
    // Pages allocated but never written read back as zeros.
    std::memset(out + n, 0, kPageSize - n);
    std::clearerr(file_);
  }
  return Status::OK();
}

Status FileDiskManager::WritePage(PageId page_id, const char* data) {
  const MutexLock lock(&mutex_);
  if (file_ == nullptr) return Status::IOError("backing file not open");
  if (page_id >= page_count_) {
    return Status::OutOfRange("write of unallocated page " +
                              std::to_string(page_id));
  }
  CountWrite(page_id);
  AMDJ_RETURN_IF_ERROR(SeekToPage(page_id));
  if (std::fwrite(data, 1, kPageSize, file_) != kPageSize) {
    return Status::IOError("short write");
  }
  return Status::OK();
}

uint32_t FileDiskManager::PageCount() const {
  const MutexLock lock(&mutex_);
  return page_count_;
}

// ---------------------------------------------------------------------------
// FaultInjectionDiskManager

bool FaultInjectionDiskManager::ConsumeBudget(
    std::atomic<uint64_t>* countdown) {
  // CAS loop instead of fetch_sub: a plain decrement racing with a
  // concurrent caller at 0 would wrap the countdown around to "never
  // fail". kNever is left untouched (no contention in the common healthy
  // case beyond one relaxed load).
  uint64_t remaining = countdown->load(std::memory_order_relaxed);
  while (true) {
    if (remaining == kNever) return true;
    if (remaining == 0) return false;
    if (countdown->compare_exchange_weak(remaining, remaining - 1,
                                         std::memory_order_relaxed)) {
      return true;
    }
  }
}

Status FaultInjectionDiskManager::ReadPage(PageId page_id, char* out) {
  if (!ConsumeBudget(&reads_until_failure_)) {
    return Status::IOError("injected read failure");
  }
  return base_->ReadPage(page_id, out);
}

Status FaultInjectionDiskManager::WritePage(PageId page_id,
                                            const char* data) {
  if (!ConsumeBudget(&writes_until_failure_)) {
    return Status::IOError("injected write failure");
  }
  return base_->WritePage(page_id, data);
}

}  // namespace amdj::storage
