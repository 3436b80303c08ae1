// Sparse byte store: the one place simulated bytes live.
//
// Process memory (vmem::AddressSpace) and iod files (disk::LocalFile) both
// model page-granular allocation: OGR registers around unmapped holes, and
// reading a hole of a sparse ext3 file costs no media time. The store keeps
// disjoint, page-aligned runs, each one zero-initialized heap block from
// calloc, so untouched pages of a large run never become resident and a run
// never moves once mapped. Bytes outside every run read as zero.
#pragma once

#include <cstdlib>
#include <map>
#include <memory>
#include <span>

#include "common/extent.h"
#include "common/types.h"

namespace pvfsib {

class SparseBytes {
 public:
  // Map the pages of [off, off+len) as one zero-filled run; they must not
  // overlap an existing run.
  void map(u64 off, u64 len);

  // Unmap the run that starts exactly at `off`; false when there is none.
  bool unmap(u64 off);

  // Copy src to `off`, first mapping the pages of any gap it covers.
  void write(u64 off, std::span<const std::byte> src);

  // Copy [off, off+dst.size()) into dst; gaps read as zero.
  void read(u64 off, std::span<std::byte> dst) const;

  // Direct access to [off, off+len), which must lie inside one run.
  std::span<std::byte> span(u64 off, u64 len);
  std::span<const std::byte> span(u64 off, u64 len) const;

  // Mapped parts of `window`, sorted and clipped; touching runs merge.
  ExtentList mapped_within(const Extent& window) const;

  // Total bytes mapped.
  u64 bytes() const { return bytes_; }

 private:
  struct Free {
    void operator()(std::byte* p) const { std::free(p); }
  };
  struct Run {
    u64 len = 0;
    std::unique_ptr<std::byte, Free> data;
  };

  // Calls fn(run bytes at lo, lo, n) for each run's overlap [lo, lo+n) with
  // [off, off+len), in address order.
  template <class Fn>
  void each_overlap(u64 off, u64 len, Fn&& fn) const;

  std::map<u64, Run> runs_;  // start -> run
  u64 bytes_ = 0;
};

}  // namespace pvfsib
