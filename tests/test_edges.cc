// Edge-case tests for thin seams: Status error propagation
// through module-boundary validation APIs, and the transaction abort path.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/arena.h"
#include "common/status.h"
#include "db/bptree.h"
#include "db/txn.h"
#include "memsim/cache.h"

namespace stagedcmp {
namespace {

// --- Status propagation ---------------------------------------------------

TEST(StatusEdgeTest, EveryFactoryCarriesItsCode) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("m"), StatusCode::kNotFound, "NotFound"},
      {Status::AlreadyExists("m"), StatusCode::kAlreadyExists, "AlreadyExists"},
      {Status::OutOfRange("m"), StatusCode::kOutOfRange, "OutOfRange"},
      {Status::ResourceExhausted("m"), StatusCode::kResourceExhausted,
       "ResourceExhausted"},
      {Status::FailedPrecondition("m"), StatusCode::kFailedPrecondition,
       "FailedPrecondition"},
      {Status::Internal("m"), StatusCode::kInternal, "Internal"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.message(), "m");
    EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": m");
  }
}

TEST(StatusEdgeTest, OkCarriesNoMessage) {
  Status s = Status::Ok();
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "OK");
}

// The idiomatic early-return chain: the innermost failure surfaces
// unchanged through every propagating frame.
TEST(StatusEdgeTest, PropagatesThroughCallChain) {
  auto inner = [](bool fail) {
    return fail ? Status::OutOfRange("index 9 past end 4") : Status::Ok();
  };
  auto middle = [&](bool fail) {
    Status s = inner(fail);
    if (!s.ok()) return s;
    return Status::Ok();
  };
  auto outer = [&](bool fail) {
    Status s = middle(fail);
    if (!s.ok()) return s;
    return Status::Ok();
  };
  EXPECT_TRUE(outer(false).ok());
  Status s = outer(true);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_NE(s.ToString().find("index 9 past end 4"), std::string::npos);
}

TEST(StatusEdgeTest, CopyAndMovePreserveState) {
  Status orig = Status::Internal("broken invariant");
  Status copy = orig;
  EXPECT_EQ(copy.code(), StatusCode::kInternal);
  EXPECT_EQ(copy.message(), orig.message());
  Status moved = std::move(orig);
  EXPECT_EQ(moved.code(), StatusCode::kInternal);
  EXPECT_EQ(moved.message(), "broken invariant");
}

// Module-boundary propagation: Cache::Validate reports each way a cache
// geometry can be malformed, with a distinct message per failure.
TEST(StatusEdgeTest, CacheValidateRejectsEachMalformation) {
  using memsim::Cache;
  using memsim::CacheConfig;
  EXPECT_TRUE(Cache::Validate(CacheConfig{64 * 1024, 4, 64}).ok());

  const CacheConfig bad_line{64 * 1024, 4, 48};     // not a power of two
  const CacheConfig tiny_line{64 * 1024, 4, 4};     // below minimum
  const CacheConfig no_ways{64 * 1024, 0, 64};      // zero associativity
  const CacheConfig ragged{60 * 1024, 7, 64};       // size % (assoc*line)
  const CacheConfig odd_sets{3 * 64 * 1024, 4, 64}; // sets not pow2
  for (const CacheConfig& c :
       {bad_line, tiny_line, no_ways, ragged, odd_sets}) {
    Status s = Cache::Validate(c);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(s.message().empty());
  }
}

TEST(StatusEdgeTest, BptreeInvariantsHoldAfterMixedInserts) {
  Arena arena;
  db::BPlusTree tree(&arena);
  for (uint64_t k = 0; k < 3000; ++k) {
    tree.Insert((k * 2654435761u) % 4096, k, nullptr);
  }
  Status s = tree.CheckInvariants();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// The constructor refuses what Validate rejects, in every build type: a
// non-power-of-two set count (26 MB at 8 ways has 53,248 sets) would
// otherwise be masked down to a fraction of the array.
TEST(StatusEdgeTest, CacheConstructorRejectsInvalidGeometry) {
  EXPECT_THROW(memsim::Cache(memsim::CacheConfig{64 * 1024, 0, 64}),
               std::invalid_argument);
  EXPECT_THROW(memsim::Cache(memsim::CacheConfig{26ull << 20, 8, 64}),
               std::invalid_argument);
  EXPECT_NO_THROW(memsim::Cache(memsim::CacheConfig{26ull << 20, 13, 64}));
}

// --- Transaction abort paths ----------------------------------------------

class TxnAbortTest : public ::testing::Test {
 protected:
  Arena arena_;
  db::LockManager lm_{&arena_};
  db::LogBuffer log_{&arena_};
};

TEST_F(TxnAbortTest, AbortReleasesEveryLock) {
  db::Transaction txn(&lm_, &log_);
  txn.Begin(nullptr);
  txn.Lock(1, db::LockMode::kShared, nullptr);
  txn.Lock(2, db::LockMode::kExclusive, nullptr);
  txn.Lock(3, db::LockMode::kExclusive, nullptr);
  EXPECT_EQ(txn.locks_held(), 3u);
  txn.Abort(nullptr);
  EXPECT_EQ(txn.locks_held(), 0u);
  EXPECT_EQ(txn.aborts(), 1u);
  EXPECT_EQ(txn.commits(), 0u);
}

TEST_F(TxnAbortTest, AbortBalancesBucketHolders) {
  db::Transaction txn(&lm_, &log_);
  txn.Begin(nullptr);
  std::vector<size_t> buckets;
  for (uint64_t k = 100; k < 110; ++k) {
    buckets.push_back(lm_.Acquire(k, db::LockMode::kExclusive, nullptr));
    lm_.Release(buckets.back(), db::LockMode::kExclusive, nullptr);
  }
  for (uint64_t k = 100; k < 110; ++k) {
    txn.Lock(k, db::LockMode::kExclusive, nullptr);
  }
  txn.Abort(nullptr);
  for (size_t b : buckets) {
    EXPECT_EQ(lm_.holders(b), 0u);
  }
}

TEST_F(TxnAbortTest, AbortWritesRollbackRecord) {
  db::Transaction txn(&lm_, &log_);
  txn.Begin(nullptr);
  txn.Lock(7, db::LockMode::kExclusive, nullptr);
  txn.Abort(nullptr);
  EXPECT_EQ(log_.records(), 1u);  // CLR-style rollback record
}

TEST_F(TxnAbortTest, AbortWithNoLocksIsSafe) {
  db::Transaction txn(&lm_, &log_);
  txn.Begin(nullptr);
  txn.Abort(nullptr);
  EXPECT_EQ(txn.locks_held(), 0u);
  EXPECT_EQ(txn.aborts(), 1u);
}

TEST_F(TxnAbortTest, ReusableAfterAbort) {
  db::Transaction txn(&lm_, &log_);
  for (int i = 0; i < 3; ++i) {
    txn.Begin(nullptr);
    txn.Lock(static_cast<uint64_t>(i), db::LockMode::kExclusive, nullptr);
    txn.Abort(nullptr);
  }
  txn.Begin(nullptr);
  txn.Lock(99, db::LockMode::kShared, nullptr);
  txn.Commit(nullptr);
  EXPECT_EQ(txn.aborts(), 3u);
  EXPECT_EQ(txn.commits(), 1u);
  EXPECT_EQ(log_.records(), 4u);  // 3 rollback + 1 commit
}

TEST_F(TxnAbortTest, TracedAbortTouchesSharedStructures) {
  db::Transaction txn(&lm_, &log_);
  trace::CodeMap code_map;
  const trace::RegionSet regions(&code_map);
  trace::Tracer t(&regions);
  txn.Begin(&t);
  txn.Lock(13, db::LockMode::kExclusive, &t);
  const size_t events_before_abort = t.trace().events.size();
  txn.Abort(&t);
  t.FlushCompute();
  // The abort path must emit log-tail and lock-bucket traffic just like
  // commit: the coherence hotspots exist on rollback too.
  EXPECT_GT(t.trace().events.size(), events_before_abort);
  bool saw_write = false;
  for (uint64_t e : t.trace().events) {
    saw_write |= trace::UnpackKind(e) == trace::EventKind::kWrite;
  }
  EXPECT_TRUE(saw_write);
}

}  // namespace
}  // namespace stagedcmp
