// softcell::mem -- generation-checked slab storage and SlabMap: stale
// handles miss instead of dereferencing a slot's new tenant, free-list
// reuse keeps storage dense, iteration stays index-ordered under churn,
// and SlabMap keeps value addresses stable.  End to end, the slab layout
// must keep reproducing the chaos digests the node maps it replaced
// produced (the golden table in chaos_golden.hpp).
#include "mem/slab.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/harness.hpp"
#include "chaos_golden.hpp"
#include "mem/slab_map.hpp"

namespace softcell {
namespace {

using mem::Handle;
using mem::Slab;
using mem::SlabMap;

TEST(SlabTest, NullHandleNeverResolves) {
  Slab<int> s;
  EXPECT_FALSE(Handle{});
  EXPECT_EQ(s.get(Handle{}), nullptr);
  EXPECT_FALSE(s.valid(Handle{}));
}

TEST(SlabTest, StaleHandleIsCheckableMiss) {
  Slab<std::string> s;
  const Handle h = s.emplace("tenant-one");
  ASSERT_NE(s.get(h), nullptr);
  EXPECT_EQ(*s.get(h), "tenant-one");

  ASSERT_TRUE(s.erase(h));
  // The use-after-free becomes a miss, not the new tenant.
  EXPECT_EQ(s.get(h), nullptr);
  EXPECT_FALSE(s.valid(h));
  EXPECT_FALSE(s.erase(h));  // double-free is a no-op

  const Handle h2 = s.emplace("tenant-two");
  EXPECT_EQ(h2.index, h.index);  // storage reused...
  EXPECT_NE(h2.generation, h.generation);
  EXPECT_EQ(s.get(h), nullptr);  // ...but the old handle still misses
  EXPECT_EQ(*s.get(h2), "tenant-two");
}

TEST(SlabTest, FreeListReusesSlotsLifo) {
  Slab<int> s;
  const Handle a = s.emplace(1);
  const Handle b = s.emplace(2);
  const Handle c = s.emplace(3);
  EXPECT_EQ(s.slot_count(), 3u);

  s.erase(a);
  s.erase(c);
  // LIFO: the most recently freed slot is reused first.
  const Handle d = s.emplace(4);
  EXPECT_EQ(d.index, c.index);
  const Handle e = s.emplace(5);
  EXPECT_EQ(e.index, a.index);
  // No growth happened: churn stayed within the existing arena.
  EXPECT_EQ(s.slot_count(), 3u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(*s.get(b), 2);
}

TEST(SlabTest, IterationVisitsIndexOrderUnderChurn) {
  Slab<int> s;
  std::vector<Handle> handles;
  for (int i = 0; i < 10; ++i) handles.push_back(s.emplace(i));
  // Erase a scattered subset; survivors must still come out in index order.
  s.erase(handles[1]);
  s.erase(handles[4]);
  s.erase(handles[7]);
  std::vector<int> seen;
  s.for_each([&](Handle, int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 3, 5, 6, 8, 9}));

  // Refill: reused slots rejoin iteration at their old positions, so the
  // order depends only on slot indexes, never on insertion recency.
  s.emplace(40);  // reuses slot 7 (LIFO)
  s.emplace(41);  // reuses slot 4
  seen.clear();
  s.for_each([&](Handle, int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 3, 41, 5, 6, 40, 8, 9}));
}

TEST(SlabTest, CopyPreservesHandleResolution) {
  Slab<int> s;
  const Handle a = s.emplace(10);
  const Handle b = s.emplace(20);
  s.erase(a);
  const Slab<int> copy = s;
  // Handles taken from the original resolve identically in the copy,
  // including staleness (ControlStore replicates SlowStates by copy).
  EXPECT_EQ(copy.get(a), nullptr);
  ASSERT_NE(copy.get(b), nullptr);
  EXPECT_EQ(*copy.get(b), 20);
  const Handle c = s.emplace(30);  // reuses a's slot in the original...
  EXPECT_EQ(c.index, a.index);
  EXPECT_EQ(copy.get(c), nullptr);  // ...without affecting the copy
}

TEST(SlabTest, BytesResidentTracksArenaGrowth) {
  Slab<std::uint64_t> s;
  const std::size_t empty = s.bytes_resident();
  EXPECT_GE(empty, sizeof(s));
  std::vector<Handle> hs;
  for (int i = 0; i < 1000; ++i) hs.push_back(s.emplace(i));
  const std::size_t grown = s.bytes_resident();
  // At least the payload plus one generation word per slot.
  EXPECT_GE(grown, empty + 1000 * (sizeof(std::uint64_t) + 4));
  // Freeing does not shrink the arena (slots await reuse).
  for (const Handle h : hs) s.erase(h);
  EXPECT_GE(s.bytes_resident(), grown);
  EXPECT_EQ(s.size(), 0u);
}

// --- SlabMap: the associative contract ---------------------------------------

TEST(SlabMapTest, BasicContract) {
  SlabMap<int, std::string> m;
  EXPECT_TRUE(m.empty());

  auto [v, fresh] = m.try_emplace(1, "one");
  EXPECT_TRUE(fresh);
  EXPECT_EQ(*v, "one");
  auto [v2, fresh2] = m.try_emplace(1, "uno");
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(*v2, "one");
  m[2] = "two";
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(2));
  EXPECT_EQ(m.at(2), "two");
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_EQ(m.erase(3), 0u);
  EXPECT_EQ(m.erase(1), 1u);
  EXPECT_FALSE(m.contains(1));

  int visited = 0;
  m.for_each([&](const int& k, const std::string& s) {
    ++visited;
    EXPECT_EQ(k, 2);
    EXPECT_EQ(s, "two");
  });
  EXPECT_EQ(visited, 1);
  EXPECT_GT(m.bytes_resident(), 0u);
}

TEST(SlabMapTest, ValueAddressesStableAcrossUnrelatedChurn) {
  SlabMap<int, int> m;
  m[7] = 70;
  int* p = m.find(7);
  ASSERT_NE(p, nullptr);
  // Unrelated inserts and erases must not move the value (the controller
  // holds a V* across engine calls; std::unordered_map gave this for free).
  for (int i = 100; i < 400; ++i) m[i] = i;
  for (int i = 100; i < 250; ++i) m.erase(i);
  EXPECT_EQ(m.find(7), p);
  EXPECT_EQ(*p, 70);
}

// --- differential digests ---------------------------------------------------
// The slab migration is a storage change, not a behavior change: every
// pinned seed must land on the digest the node-map layout produced.  Seeds
// run newest first and twice each, so every run builds its slabs on a heap
// a different predecessor freed into; an observable that leaked a slot
// index or value address would make the repeat diverge.

TEST(SlabDifferential, ChaosDigestsMatchNodeLayout) {
  const auto corpus = chaos_golden::golden_chaos_corpus();
  for (auto it = corpus.rbegin(); it != corpus.rend(); ++it) {
    const auto sc = chaos::Scenario::generate(it->seed);
    for (int rep = 0; rep < 2; ++rep) {
      const auto r =
          chaos::run_scenario(sc, chaos_golden::corpus_options(it->seed));
      ASSERT_TRUE(r.ok) << "seed " << it->seed << ", run " << rep;
      EXPECT_EQ(r.digest, it->digest) << "seed " << it->seed << ", run " << rep;
    }
  }
}

}  // namespace
}  // namespace softcell
