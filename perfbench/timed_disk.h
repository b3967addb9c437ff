#ifndef AMDJ_PERFBENCH_TIMED_DISK_H_
#define AMDJ_PERFBENCH_TIMED_DISK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "storage/disk_manager.h"

namespace amdj::perfbench {

/// DiskManager decorator for the traced run: forwards every call to `base`
/// and keeps page counts and summed busy time inside ReadPage/WritePage.
/// Counts and times only — one span per page would cost more than the
/// in-memory page copy it measures. The I/O counters the cost model reads
/// stay on `base` (this object's own DiskStats are never touched).
class TimedDiskManager : public storage::DiskManager {
 public:
  /// Does not take ownership of `base`.
  explicit TimedDiskManager(storage::DiskManager* base) : base_(base) {}

  storage::PageId AllocatePage() override { return base_->AllocatePage(); }
  void FreePage(storage::PageId page_id) override { base_->FreePage(page_id); }
  uint32_t PageCount() const override { return base_->PageCount(); }

  Status ReadPage(storage::PageId page_id, char* out) override {
    const auto start = std::chrono::steady_clock::now();
    Status s = base_->ReadPage(page_id, out);
    Charge(start, &reads_, &read_ns_);
    return s;
  }

  Status WritePage(storage::PageId page_id, const char* data) override {
    const auto start = std::chrono::steady_clock::now();
    Status s = base_->WritePage(page_id, data);
    Charge(start, &writes_, &write_ns_);
    return s;
  }

  struct Totals {
    uint64_t reads = 0;
    uint64_t writes = 0;
    double read_ms = 0.0;
    double write_ms = 0.0;
  };

  Totals totals() const {
    return Totals{reads_.load(std::memory_order_relaxed),
                  writes_.load(std::memory_order_relaxed),
                  read_ns_.load(std::memory_order_relaxed) / 1e6,
                  write_ns_.load(std::memory_order_relaxed) / 1e6};
  }

 private:
  static void Charge(std::chrono::steady_clock::time_point start,
                     std::atomic<uint64_t>* count,
                     std::atomic<uint64_t>* ns) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    count->fetch_add(1, std::memory_order_relaxed);
    ns->fetch_add(static_cast<uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          elapsed)
                          .count()),
                  std::memory_order_relaxed);
  }

  storage::DiskManager* base_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> read_ns_{0};
  std::atomic<uint64_t> write_ns_{0};
};

}  // namespace amdj::perfbench

#endif  // AMDJ_PERFBENCH_TIMED_DISK_H_
