// Pinned chaos corpus shared by test_shard_brain and test_mem.
//
// 25 seeds spread over three bands (default, runtime workers, shortcuts
// off).  Each digest is the full order-sensitive event digest (per-packet
// observables, FNV-1a) that the legacy per-shard-clone brain and the
// node-map storage layout both produced for that seed; the shard brain on
// the slab layout must keep reproducing it.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "chaos/harness.hpp"

namespace softcell::chaos_golden {

inline chaos::ChaosOptions corpus_options(std::uint64_t seed) {
  chaos::ChaosOptions opt;
  if (seed > 170 && seed <= 190) opt.runtime_workers = 2;
  if (seed > 190) opt.install_shortcuts = false;
  return opt;
}

struct ChaosGolden {
  std::uint64_t seed;
  std::uint64_t digest;
};
inline constexpr ChaosGolden kGoldenChaos[] = {
    {1, 0xe954ea1eada27ec8ull},   {9, 0xdc1a5755f2dc9b17ull},
    {17, 0xad4898cd3574bab9ull},  {25, 0x7e99842db98fa0abull},
    {34, 0x483e4ba6461b0dd0ull},  {42, 0xc702adefe700eddeull},
    {50, 0xd84f3fdfea633080ull},  {59, 0xb4373b059f180c48ull},
    {67, 0xa511ef7ef94a4b06ull},  {75, 0x99a158a6ba662bcfull},
    {83, 0x5c513470fec1eed0ull},  {92, 0xee7808a11b3b67c5ull},
    {100, 0xc5bb2b4241a3a559ull}, {108, 0xe78730d12363522bull},
    {117, 0x6d6b3fba103da878ull}, {125, 0x8637d239f8a3fea6ull},
    {133, 0xee1b1b65e037cd1bull}, {141, 0x22d82714a362d0b7ull},
    {150, 0x7fd61ffb41404e2cull}, {158, 0x6da43a9d4ad7dfbbull},
    {166, 0x988c6833f524250aull}, {175, 0xd62264d5653a48b6ull},
    {183, 0xc96733f722daeac6ull}, {191, 0x187f93532e93d10dull},
    {200, 0x05fb2df06acb0543ull},
};

// SOFTCELL_CHAOS_SEEDS shortens the pinned list for expensive reruns
// (tier1.sh uses it under ASan/TSan): n < 25 keeps n evenly spaced
// entries.  It never adds a seed that has no golden digest.
inline std::vector<ChaosGolden> golden_chaos_corpus() {
  constexpr std::size_t kAll = std::size(kGoldenChaos);
  std::size_t n = kAll;
  if (const char* env = std::getenv("SOFTCELL_CHAOS_SEEDS")) {
    const auto parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0 && parsed < kAll) n = static_cast<std::size_t>(parsed);
  }
  std::vector<ChaosGolden> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(kGoldenChaos[n > 1 ? i * (kAll - 1) / (n - 1) : 0]);
  return out;
}

}  // namespace softcell::chaos_golden
