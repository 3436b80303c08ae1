// Sparse byte store: the one place simulated bytes live.
//
// Process memory (vmem::AddressSpace) and iod files (disk::LocalFile) both
// model page-granular allocation: OGR registers around unmapped holes, and
// reading a hole of a sparse ext3 file costs no media time. The store keeps
// disjoint, page-aligned runs of zero-filled bytes. A run never moves once
// mapped, and bytes outside every run read as zero.
//
// How a run is backed follows its role. An explicit map() (an AddressSpace
// allocation, such as an iod's 4 MiB staging buffer) is its own anonymous
// mmap, so only the pages the simulation touches become resident and unmap
// hands them back to the kernel. A heap block would not do: once glibc has
// freed one large chunk it raises its mmap threshold, and later large
// callocs are carved from recycled heap and memset in full. The pages that
// write() maps for a gap (a file's written blocks, mostly one page each)
// are calloc blocks, where a syscall and a VMA per page would cost more.
#pragma once

#include <map>
#include <span>

#include "common/extent.h"
#include "common/types.h"

namespace pvfsib {

class SparseBytes {
 public:
  // Map the pages of [off, off+len) as one zero-filled run with its own
  // anonymous mapping; they must not overlap an existing run.
  void map(u64 off, u64 len);

  // Unmap the run that starts exactly at `off`; false when there is none.
  bool unmap(u64 off);

  // Copy src to `off`, first mapping the pages of any gap it covers (each
  // gap one heap run).
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
  // `len` zero-filled bytes at `data`, released the way they were obtained.
  struct Run {
    enum class Source { kMmap, kCalloc };
    Run(u64 len, Source source);  // throws std::bad_alloc
    ~Run();
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    u64 len;
    Source source;
    std::byte* data;
  };

  // Add the pages of [off, off+len) as one run; they must be unmapped.
  void add_run(u64 off, u64 len, Run::Source source);

  // Calls fn(run bytes at lo, lo, n) for each run's overlap [lo, lo+n) with
  // [off, off+len), in address order.
  template <class Fn>
  void each_overlap(u64 off, u64 len, Fn&& fn) const;

  std::map<u64, Run> runs_;  // start -> run
  u64 bytes_ = 0;
};

}  // namespace pvfsib
