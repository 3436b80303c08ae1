// The I/O node's local file system (the role ext3 plays on a PVFS iod).
//
// Files hold real bytes; every call charges the virtual-time costs the ADS
// model reasons about: per-syscall overheads (O_r/O_w/O_seek/O_lock),
// page-cache service on hits, media seek + transfer on misses, write-back
// on fsync. One pread/pwrite models PVFS's (lseek, read/write) pair and is
// counted as one disk access in the Table 6 profile.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/sim_time.h"
#include "common/sparse_bytes.h"
#include "common/stats.h"
#include "common/status.h"
#include "disk/disk.h"
#include "disk/page_cache.h"

namespace pvfsib::disk {

struct IoOpts {
  bool direct = false;  // bypass the page cache entirely (O_DIRECT)
};

class LocalFs;

class LocalFile {
 public:
  // Read up to dst.size() bytes at `off`; short count at EOF.
  Timed<u64> pread(u64 off, std::span<std::byte> dst, IoOpts opts = {});

  // Write src at `off`, growing (and zero-filling) the file as needed.
  Timed<u64> pwrite(u64 off, std::span<const std::byte> src, IoOpts opts = {});

  // Flush dirty pages to media.
  Duration fsync();

  // Whole-file advisory lock (ADS read-modify-write holds this).
  Duration lock();
  Duration unlock();
  bool locked() const { return locked_; }

  // Byte-range advisory locks ("the portion of the file being accessed
  // must be locked"). Conflicting requests fail rather than block — the
  // simulation is single-threaded, so a conflict is a protocol bug.
  struct RangeLock {
    u64 id = 0;
    Duration cost = Duration::zero();
  };
  Result<RangeLock> lock_range(const Extent& range);
  Duration unlock_range(u64 lock_id);
  bool range_locked(const Extent& range) const;

  u64 size() const { return size_; }
  u32 id() const { return id_; }
  const std::string& path() const { return path_; }

  // A copy of the contents for test verification (no cost, no stats).
  std::vector<std::byte> contents() const;

  // The stored bytes, without cost, stats or cache interaction. Mapped pages
  // are the file's allocated blocks. The integrity plane reads block bytes
  // here, and the fault plane's silent corruption (bit flips, torn-write
  // garbling) writes here behind the checksums' back; the regular I/O path
  // never does.
  SparseBytes& stored() { return bytes_; }
  const SparseBytes& stored() const { return bytes_; }

  // Release the file's blocks and cached pages (unlink's data side).
  // Returns the (small) cost of the metadata update.
  Duration purge();

 private:
  friend class LocalFs;
  LocalFile(LocalFs* fs, u32 id, std::string path, u64 disk_base)
      : fs_(fs), id_(id), path_(std::move(path)), disk_base_(disk_base) {}

  Duration seek_syscall_cost(u64 off);
  Duration writeback(const std::vector<PageKey>& pages);

  LocalFs* fs_;
  u32 id_;
  std::string path_;
  u64 disk_base_;  // position of byte 0 on the platter
  u64 logical_pos_ = 0;
  bool locked_ = false;
  u64 size_ = 0;
  // Written pages are allocated blocks: reading a hole inside a sparse file
  // returns zeros straight from the block map, without any media access.
  SparseBytes bytes_;
  // Active byte-range locks: id -> extent.
  std::map<u64, Extent> range_locks_;
  u64 next_lock_id_ = 1;
};

class LocalFs {
 public:
  LocalFs(std::string name, const DiskParams& disk_params,
          const FsParams& fs_params, Stats* stats);

  Result<u32> create(const std::string& path);
  Result<u32> open(const std::string& path);
  bool exists(const std::string& path) const;
  LocalFile& file(u32 fd);
  const LocalFile& file(u32 fd) const;

  // Flush all dirty pages and empty the cache (echo 3 > drop_caches after a
  // sync); returns the cost of the write-back.
  Duration drop_caches();

  Disk& media() { return disk_; }
  PageCache& cache() { return cache_; }
  const FsParams& fs_params() const { return fs_params_; }
  const DiskParams& disk_params() const { return disk_params_; }
  Stats* stats() { return stats_; }
  const std::string& name() const { return name_; }

 private:
  friend class LocalFile;

  std::string name_;
  DiskParams disk_params_;
  FsParams fs_params_;
  Stats* stats_;
  Disk disk_;
  PageCache cache_;
  std::vector<std::unique_ptr<LocalFile>> files_;

  // Files are laid out 4 GiB apart on the simulated platter so inter-file
  // seeks are long and intra-file seeks short.
  static constexpr u64 kFileSpacing = 4 * kGiB;
};

}  // namespace pvfsib::disk
