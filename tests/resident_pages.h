// Host residency of simulated memory, for tests that check set-up does not
// fault in bytes the simulation never touches.
#pragma once

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace pvfsib {

// Host pages of [p, p+len) that are resident in this process (mincore).
inline u64 resident_pages(const void* p, u64 len) {
  const auto host_page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto lo = reinterpret_cast<std::uintptr_t>(p) / host_page * host_page;
  const auto hi = (reinterpret_cast<std::uintptr_t>(p) + len + host_page - 1) /
                  host_page * host_page;
  std::vector<unsigned char> vec((hi - lo) / host_page);
  if (mincore(reinterpret_cast<void*>(lo), hi - lo, vec.data()) != 0) {
    ADD_FAILURE() << "mincore: part of the range is not mapped";
    return 0;
  }
  u64 n = 0;
  for (const unsigned char v : vec) n += v & 1;
  return n;
}

}  // namespace pvfsib
