#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/env.h"
#include "io/faulty_env.h"
#include "io/mem_env.h"
#include "io/posix_env.h"
#include "io/uring_env.h"
#include "storage/page.h"
#include "storage/page_store.h"
#include "tests/test_util.h"

namespace llb {
namespace {

/// The AsyncFile contract (io/uring_env.h): batched submit/reap with up
/// to queue_depth operations in flight, device errors surfacing on Reap
/// (never Submit), zero-fill past end of file, and Sync as one barrier
/// over all reapable writes. The suite runs the portable thread-pool
/// backend over MemEnv / FaultyEnv, and both backends over PosixEnv real
/// files — the semantics must be byte-identical.

std::string Pattern(size_t n, char seed) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>(seed + i % 23);
  return s;
}

/// Reaps until `file` has no operations in flight; returns completions.
std::vector<AsyncIoCompletion> ReapAllOf(AsyncFile* file) {
  std::vector<AsyncIoCompletion> out;
  while (file->in_flight() > 0) {
    EXPECT_OK(file->Reap(file->in_flight(), &out));
  }
  return out;
}

TEST(AsyncFileTest, WriteReapSyncReadRoundTrip) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                       env.OpenAsync("f", /*create=*/true));
  EXPECT_STREQ(file->backend(), "thread-pool");

  std::string a = Pattern(512, 'a');
  std::string b = Pattern(512, 'b');
  ASSERT_OK(file->SubmitWriteAtv(0, {Slice(a)}, /*tag=*/1));
  ASSERT_OK(file->SubmitWriteAtv(512, {Slice(b)}, /*tag=*/2));
  EXPECT_EQ(file->in_flight(), 2u);

  std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 2u);
  for (const AsyncIoCompletion& c : done) {
    EXPECT_OK(c.status);
    EXPECT_TRUE(c.tag == 1 || c.tag == 2);
  }
  ASSERT_OK(file->Sync());

  // The plain File view of the same env file sees the async writes.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> plain,
                       env.OpenFile("f", /*create=*/false));
  std::string read;
  ASSERT_OK(plain->ReadAt(0, 1024, &read));
  EXPECT_EQ(read, a + b);

  // And the async read view round-trips the same bytes.
  std::string buf(1024, '\0');
  ASSERT_OK(
      file->SubmitReadAtv(0, {IoBuffer{&buf[0], buf.size()}}, /*tag=*/7));
  done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_OK(done[0].status);
  EXPECT_EQ(done[0].tag, 7u);
  EXPECT_EQ(buf, a + b);
}

TEST(AsyncFileTest, ReadPastEndOfFileZeroFills) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                       env.OpenAsync("f", /*create=*/true));
  std::string data = Pattern(100, 'x');
  ASSERT_OK(file->SubmitWriteAtv(0, {Slice(data)}, 1));
  ReapAllOf(file.get());

  // Read straddling EOF: bytes [0, 100) are the data, [100, 256) zero —
  // the never-written-page convention (File::ReadAtv parity).
  std::string buf(256, '\xff');
  ASSERT_OK(file->SubmitReadAtv(0, {IoBuffer{&buf[0], buf.size()}}, 2));
  std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_OK(done[0].status);
  EXPECT_EQ(buf.substr(0, 100), data);
  EXPECT_EQ(buf.substr(100), std::string(156, '\0'));

  // Entirely past EOF: all zero.
  std::string past(64, '\xff');
  ASSERT_OK(
      file->SubmitReadAtv(4096, {IoBuffer{&past[0], past.size()}}, 3));
  done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_OK(done[0].status);
  EXPECT_EQ(past, std::string(64, '\0'));
}

TEST(AsyncFileTest, SubmitFailsOnlyOnMisuse) {
  MemEnv env;
  AsyncIoOptions options;
  options.queue_depth = 2;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                       env.OpenAsync("f", /*create=*/true, options));
  EXPECT_EQ(file->queue_depth(), 2u);

  // Empty buffer is a caller bug, rejected at submit.
  EXPECT_TRUE(file->SubmitReadAtv(0, {IoBuffer{nullptr, 0}}, 1)
                  .IsInvalidArgument());
  EXPECT_TRUE(file->SubmitWriteAtv(0, {Slice()}, 1).IsInvalidArgument());

  // Queue-depth overflow is a caller bug too: the (depth+1)-th submit
  // fails without enqueueing, and nothing about the in-flight ops is
  // disturbed.
  std::string data = Pattern(64, 'q');
  ASSERT_OK(file->SubmitWriteAtv(0, {Slice(data)}, 1));
  ASSERT_OK(file->SubmitWriteAtv(64, {Slice(data)}, 2));
  Status overflow = file->SubmitWriteAtv(128, {Slice(data)}, 3);
  EXPECT_TRUE(overflow.IsFailedPrecondition()) << overflow.ToString();
  EXPECT_EQ(file->in_flight(), 2u);
  std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 2u);
  for (const AsyncIoCompletion& c : done) EXPECT_OK(c.status);
}

TEST(AsyncFileTest, ReapClampsToInFlight) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                       env.OpenAsync("f", /*create=*/true));
  // Asking for more completions than are in flight must not block.
  std::vector<AsyncIoCompletion> done;
  ASSERT_OK(file->Reap(100, &done));
  EXPECT_TRUE(done.empty());

  std::string data = Pattern(32, 'r');
  ASSERT_OK(file->SubmitWriteAtv(0, {Slice(data)}, 1));
  ASSERT_OK(file->Reap(100, &done));
  EXPECT_EQ(done.size(), 1u);
  EXPECT_EQ(file->in_flight(), 0u);
}

TEST(AsyncFileTest, SyncDrainsInFlightWritesAndKeepsCompletions) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                       env.OpenAsync("f", /*create=*/true));
  std::string data = Pattern(128, 's');
  ASSERT_OK(file->SubmitWriteAtv(0, {Slice(data)}, 1));
  ASSERT_OK(file->SubmitWriteAtv(128, {Slice(data)}, 2));
  ASSERT_OK(file->Sync());

  // Sync waited for the writes, but their completions are still owed.
  std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
  EXPECT_EQ(done.size(), 2u);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> plain,
                       env.OpenFile("f", /*create=*/false));
  std::string read;
  ASSERT_OK(plain->ReadAt(0, 256, &read));
  EXPECT_EQ(read, data + data);
}

/// Satellite: async fault injection. A scripted device fault must ride
/// the completion (error on Reap) — Submit already returned OK by the
/// time the device failed, exactly like a real submission queue.
TEST(AsyncFaultTest, DeviceErrorSurfacesOnReapNotSubmit) {
  MemEnv base;
  FaultyEnv env(&base);
  ScriptedFaultPolicy policy;
  policy.Add(FaultPoint{FaultOp::kReadAt, "", 1, FaultAction::kFail});
  env.SetPolicy(&policy);

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                       env.OpenAsync("f", /*create=*/true));
  std::string buf(64, '\0');
  // The submit itself is clean — the fault fires on the worker.
  ASSERT_OK(file->SubmitReadAtv(0, {IoBuffer{&buf[0], buf.size()}}, 9));
  std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].status.IsIoError()) << done[0].status.ToString();
  EXPECT_EQ(done[0].tag, 9u);
  EXPECT_EQ(env.stats().read_faults, 1u);

  // The fault was transient: the same read succeeds afterwards.
  ASSERT_OK(file->SubmitReadAtv(0, {IoBuffer{&buf[0], buf.size()}}, 10));
  done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_OK(done[0].status);
}

TEST(AsyncFaultTest, WriteErrorSurfacesOnReapAndOthersComplete) {
  MemEnv base;
  FaultyEnv env(&base);
  ScriptedFaultPolicy policy;
  policy.Add(FaultPoint{FaultOp::kWriteAt, "", 2, FaultAction::kFail});
  env.SetPolicy(&policy);

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                       env.OpenAsync("f", /*create=*/true));
  std::string data = Pattern(64, 'w');
  for (uint64_t tag = 1; tag <= 3; ++tag) {
    ASSERT_OK(file->SubmitWriteAtv((tag - 1) * 64, {Slice(data)}, tag));
  }
  std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 3u);
  int failures = 0;
  for (const AsyncIoCompletion& c : done) {
    if (!c.status.ok()) {
      EXPECT_TRUE(c.status.IsIoError());
      ++failures;
    }
  }
  // Exactly the scripted op failed; its neighbors completed fine.
  EXPECT_EQ(failures, 1);
}

// ---------- real files ----------

std::string TestRoot(const char* name) {
  const char* tmp = getenv("TMPDIR");
  std::string root = (tmp != nullptr ? std::string(tmp) : "/tmp");
  return root + "/" + name + "_" + std::to_string(::getpid());
}

/// Both PosixEnv backends (native io_uring where the kernel grants it,
/// the thread pool when use_io_uring is off) must produce byte-identical
/// results over a real file.
TEST(PosixAsyncTest, BothBackendsRoundTripRealFiles) {
  for (bool use_uring : {true, false}) {
    PosixEnvOptions opt;
    opt.use_io_uring = use_uring;
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PosixEnv> env,
        PosixEnv::Open(TestRoot(use_uring ? "uring_rt" : "pool_rt"), opt));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                         env->OpenAsync("data", /*create=*/true));
    if (!use_uring) {
      EXPECT_STREQ(file->backend(), "thread-pool");
    } else if (UringAvailable()) {
      EXPECT_STREQ(file->backend(), "io_uring");
    }

    // A deep window of writes, one sync, then reads of the same ranges.
    std::vector<std::string> blocks;
    for (int i = 0; i < 6; ++i) {
      blocks.push_back(Pattern(kIoAlignment, static_cast<char>('A' + i)));
    }
    for (size_t i = 0; i < blocks.size(); ++i) {
      ASSERT_OK(
          file->SubmitWriteAtv(i * kIoAlignment, {Slice(blocks[i])}, i));
    }
    std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
    ASSERT_EQ(done.size(), blocks.size());
    for (const AsyncIoCompletion& c : done) EXPECT_OK(c.status);
    ASSERT_OK(file->Sync());

    std::vector<std::string> read(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
      read[i].assign(kIoAlignment, '\0');
      ASSERT_OK(file->SubmitReadAtv(
          i * kIoAlignment, {IoBuffer{&read[i][0], read[i].size()}}, i));
    }
    done = ReapAllOf(file.get());
    ASSERT_EQ(done.size(), blocks.size());
    for (const AsyncIoCompletion& c : done) EXPECT_OK(c.status);
    for (size_t i = 0; i < blocks.size(); ++i) EXPECT_EQ(read[i], blocks[i]);

    // The write path must keep the File's cached size honest (the uring
    // backend bypasses File::WriteAt, so this pins the extent callback).
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> plain,
                         env->OpenFile("data", /*create=*/false));
    ASSERT_OK_AND_ASSIGN(uint64_t size, plain->Size());
    EXPECT_EQ(size, blocks.size() * kIoAlignment);
  }
}

/// Vectored submits gather a write from several chunks and scatter a
/// read across several buffers on both backends (the thread pool runs
/// File::WriteAtv/ReadAtv in place; io_uring stages through its own
/// aligned buffer) — including the zero-fill of a chunk past end of file.
TEST(PosixAsyncTest, VectoredSubmitsGatherAndScatter) {
  for (bool use_uring : {true, false}) {
    SCOPED_TRACE(use_uring ? "io_uring" : "thread-pool");
    PosixEnvOptions opt;
    opt.use_io_uring = use_uring;
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PosixEnv> env,
        PosixEnv::Open(TestRoot(use_uring ? "uring_vec" : "pool_vec"), opt));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                         env->OpenAsync("data", /*create=*/true));

    std::string a = Pattern(kIoAlignment, 'a');
    std::string b = Pattern(100, 'b');
    std::string c = Pattern(kIoAlignment - 100, 'c');
    ASSERT_OK(file->SubmitWriteAtv(0, {Slice(a), Slice(b), Slice(c)}, 1));
    std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
    ASSERT_EQ(done.size(), 1u);
    EXPECT_OK(done[0].status);
    ASSERT_OK(file->Sync());

    // Scatter the two written pages plus 64 bytes past EOF across three
    // differently split buffers.
    std::string x(3000, '\xff');
    std::string y(2 * kIoAlignment - 3000, '\xff');
    std::string z(64, '\xff');
    ASSERT_OK(file->SubmitReadAtv(
        0, {IoBuffer{&x[0], x.size()}, IoBuffer{&y[0], y.size()},
            IoBuffer{&z[0], z.size()}},
        2));
    done = ReapAllOf(file.get());
    ASSERT_EQ(done.size(), 1u);
    EXPECT_OK(done[0].status);
    EXPECT_EQ(x + y, a + b + c);
    EXPECT_EQ(z, std::string(64, '\0'));
  }
}

/// Satellite: O_DIRECT alignment. Aligned page-size IO rides the direct
/// fd; misaligned operations must fall back to buffered IO silently and
/// still read back exactly.
TEST(PosixAsyncTest, DirectIoAlignedAndMisalignedRoundTrip) {
  PosixEnvOptions opt;
  opt.direct_io = true;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PosixEnv> env,
                       PosixEnv::Open(TestRoot("direct_rt"), opt));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                       env->OpenAsync("data", /*create=*/true));

  // Aligned: page-size buffer from MakeAlignedIoString at an aligned
  // offset — eligible for the O_DIRECT path on both backends.
  AlignedIoString aligned = MakeAlignedIoString(kIoAlignment);
  std::string page = Pattern(kIoAlignment, 'D');
  std::memcpy(aligned.data, page.data(), page.size());
  ASSERT_OK(
      file->SubmitWriteAtv(0, {Slice(aligned.data, aligned.size)}, 1));
  std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_OK(done[0].status);
  ASSERT_OK(file->Sync());

  AlignedIoString back = MakeAlignedIoString(kIoAlignment);
  ASSERT_OK(file->SubmitReadAtv(0, {IoBuffer{back.data, back.size}}, 2));
  done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_OK(done[0].status);
  EXPECT_EQ(std::memcmp(back.data, page.data(), page.size()), 0);

  // Misaligned offset and size: must fall back to buffered IO, not fail.
  std::string odd = Pattern(100, 'm');
  ASSERT_OK(file->SubmitWriteAtv(kIoAlignment + 13, {Slice(odd)}, 3));
  done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_OK(done[0].status);
  ASSERT_OK(file->Sync());

  std::string odd_back(100, '\0');
  ASSERT_OK(file->SubmitReadAtv(
      kIoAlignment + 13, {IoBuffer{&odd_back[0], odd_back.size()}}, 4));
  done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_OK(done[0].status);
  EXPECT_EQ(odd_back, odd);
}

/// FaultyEnv composes over PosixEnv (it decorates any base env), so
/// fault injection reaches the real-file async path too — through the
/// portable backend, whose semantics the native one must match.
TEST(PosixAsyncTest, FaultInjectionOverRealFiles) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PosixEnv> posix,
                       PosixEnv::Open(TestRoot("faulty_rt")));
  FaultyEnv env(posix.get());
  ScriptedFaultPolicy policy;
  policy.Add(FaultPoint{FaultOp::kWriteAt, "data", 1, FaultAction::kFail});
  env.SetPolicy(&policy);

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<AsyncFile> file,
                       env.OpenAsync("data", /*create=*/true));
  std::string data = Pattern(kIoAlignment, 'F');
  ASSERT_OK(file->SubmitWriteAtv(0, {Slice(data)}, 1));
  std::vector<AsyncIoCompletion> done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].status.IsIoError()) << done[0].status.ToString();

  // Transient: the retry lands on disk.
  ASSERT_OK(file->SubmitWriteAtv(0, {Slice(data)}, 2));
  done = ReapAllOf(file.get());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_OK(done[0].status);
  ASSERT_OK(file->Sync());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> plain,
                       env.OpenFile("data", /*create=*/false));
  std::string read;
  ASSERT_OK(plain->ReadAt(0, data.size(), &read));
  EXPECT_EQ(read, data);
}

TEST(AlignedIoStringTest, AlignedAndMoveSafe) {
  AlignedIoString s = MakeAlignedIoString(3 * kIoAlignment);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(s.data) % kIoAlignment, 0u);
  EXPECT_EQ(s.size, 3 * kIoAlignment);
  std::memset(s.data, 0x5a, s.size);

  // Moving the struct must not invalidate the aligned view (the storage
  // is heap-backed; the data pointer survives the move).
  AlignedIoString moved = std::move(s);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(moved.data) % kIoAlignment, 0u);
  for (size_t i = 0; i < moved.size; i += 512) {
    ASSERT_EQ(static_cast<unsigned char>(moved.data[i]), 0x5au);
  }
}

// ---------- PageStore deep-queue reader/writer ----------

PageImage MakePage(uint32_t page, uint64_t lsn) {
  PageImage image;
  image.set_lsn(lsn);
  image.set_type(PageType::kRaw);
  std::string payload = Pattern(128, static_cast<char>('0' + page % 10));
  image.SetPayload(Slice(payload));
  image.Seal();
  return image;
}

TEST(PageStoreAsyncTest, ReaderMatchesSyncReadRun) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                       PageStore::Open(&env, "s", /*num_partitions=*/2));
  for (PartitionId p = 0; p < 2; ++p) {
    for (uint32_t page = 0; page < 16; ++page) {
      ASSERT_OK(store->WritePage(PageId{p, page}, MakePage(page, page + 1)));
    }
  }

  std::unique_ptr<PageStore::AsyncRunReader> reader = store->NewAsyncReader(4);
  ASSERT_OK(reader->SubmitRead(0, 0, 8, /*tag=*/100));
  ASSERT_OK(reader->SubmitRead(0, 8, 8, /*tag=*/101));
  ASSERT_OK(reader->SubmitRead(1, 4, 8, /*tag=*/102));
  std::vector<PageStore::AsyncRunResult> results;
  ASSERT_OK(reader->ReapAll(&results));
  ASSERT_EQ(results.size(), 3u);

  for (const PageStore::AsyncRunResult& r : results) {
    ASSERT_OK(r.status);
    PartitionId partition = r.tag == 102 ? 1 : 0;
    uint32_t first = r.tag == 100 ? 0 : (r.tag == 101 ? 8 : 4);
    std::vector<PageImage> expected;
    ASSERT_OK(store->ReadRun(partition, first, 8, &expected));
    ASSERT_EQ(r.images.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(r.images[i].lsn(), expected[i].lsn());
      EXPECT_TRUE(r.images[i] == expected[i]);
    }
  }
}

TEST(PageStoreAsyncTest, ReaderQueueDepthIsEnforced) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                       PageStore::Open(&env, "s", 1));
  ASSERT_OK(store->WritePage(PageId{0, 0}, MakePage(0, 1)));

  std::unique_ptr<PageStore::AsyncRunReader> reader = store->NewAsyncReader(2);
  ASSERT_OK(reader->SubmitRead(0, 0, 1, 1));
  ASSERT_OK(reader->SubmitRead(0, 0, 1, 2));
  EXPECT_TRUE(reader->SubmitRead(0, 0, 1, 3).IsFailedPrecondition());
  std::vector<PageStore::AsyncRunResult> results;
  ASSERT_OK(reader->ReapAll(&results));
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(reader->in_flight(), 0u);
}

/// The torn-read disambiguation path: a silent bit flip makes the
/// optimistic unlatched read fail its checksum at reap; the reader must
/// retry once under the partition latch with the synchronous ReadRun.
/// A transient corruption (gone on retry) therefore heals invisibly...
TEST(PageStoreAsyncTest, ChecksumFailureRetriesUnderLatch) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                       PageStore::Open(&env, "s", 1));
  for (uint32_t page = 0; page < 8; ++page) {
    ASSERT_OK(store->WritePage(PageId{0, page}, MakePage(page, page + 1)));
  }

  ScriptedFaultPolicy policy;
  policy.Add(FaultPoint{FaultOp::kReadAt, ".p0", 1, FaultAction::kCorrupt});
  env.SetPolicy(&policy);

  std::unique_ptr<PageStore::AsyncRunReader> reader = store->NewAsyncReader(2);
  ASSERT_OK(reader->SubmitRead(0, 0, 8, 1));
  std::vector<PageStore::AsyncRunResult> results;
  ASSERT_OK(reader->ReapAll(&results));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_OK(results[0].status);  // the latched retry read clean bytes
  ASSERT_EQ(results[0].images.size(), 8u);
  EXPECT_EQ(policy.fired(), 1u);
}

/// ...while persistent rot fails the latched retry too, and that error
/// (real media corruption, not a torn read) is what propagates.
TEST(PageStoreAsyncTest, PersistentCorruptionPropagates) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                       PageStore::Open(&env, "s", 1));
  for (uint32_t page = 0; page < 4; ++page) {
    ASSERT_OK(store->WritePage(PageId{0, page}, MakePage(page, page + 1)));
  }
  ASSERT_OK(store->CorruptPage(PageId{0, 2}));

  std::unique_ptr<PageStore::AsyncRunReader> reader = store->NewAsyncReader(1);
  ASSERT_OK(reader->SubmitRead(0, 0, 4, 1));
  std::vector<PageStore::AsyncRunResult> results;
  ASSERT_OK(reader->ReapAll(&results));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.IsCorruption())
      << results[0].status.ToString();
}

TEST(PageStoreAsyncTest, WriterWindowPersistsAcrossPartitions) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> src,
                       PageStore::Open(&env, "src", 2));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> dst,
                       PageStore::Open(&env, "dst", 2));
  for (PartitionId p = 0; p < 2; ++p) {
    for (uint32_t page = 0; page < 8; ++page) {
      ASSERT_OK(src->WritePage(PageId{p, page}, MakePage(page, page + 9)));
    }
  }

  // A window of sealed runs spanning both partitions, written with one
  // barrier per partition.
  std::vector<PageImage> run0, run1, run2;
  ASSERT_OK(src->ReadRun(0, 0, 4, &run0));
  ASSERT_OK(src->ReadRun(0, 4, 4, &run1));
  ASSERT_OK(src->ReadRun(1, 0, 8, &run2));
  std::vector<PageStore::SealedRunWrite> window = {
      {0, 0, &run0, 10}, {0, 4, &run1, 11}, {1, 0, &run2, 12}};

  std::unique_ptr<PageStore::AsyncRunWriter> writer = dst->NewAsyncWriter(4);
  std::vector<PageStore::AsyncRunResult> results;
  ASSERT_OK(writer->WriteWindow(window, &results));
  ASSERT_EQ(results.size(), 3u);
  for (const PageStore::AsyncRunResult& r : results) {
    EXPECT_OK(r.status);
    EXPECT_TRUE(r.tag >= 10 && r.tag <= 12);
  }

  // Every page reads back through the checksum-verifying sync path.
  for (PartitionId p = 0; p < 2; ++p) {
    for (uint32_t page = 0; page < 8; ++page) {
      PageImage got;
      ASSERT_OK(dst->ReadPage(PageId{p, page}, &got));
      EXPECT_EQ(got.lsn(), page + 9u);
    }
  }
  ASSERT_OK_AND_ASSIGN(uint32_t pages, dst->PageCount(0));
  EXPECT_EQ(pages, 8u);
}

TEST(PageStoreAsyncTest, WriterSurfacesDeviceErrorPerRun) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                       PageStore::Open(&env, "s", 1));
  std::vector<PageImage> run;
  for (uint32_t page = 0; page < 4; ++page) {
    run.push_back(MakePage(page, page + 1));
  }

  ScriptedFaultPolicy policy;
  policy.Add(FaultPoint{FaultOp::kWriteAt, ".p0", 1, FaultAction::kFail});
  env.SetPolicy(&policy);

  std::unique_ptr<PageStore::AsyncRunWriter> writer = store->NewAsyncWriter(2);
  std::vector<PageStore::SealedRunWrite> window = {{0, 0, &run, 1}};
  std::vector<PageStore::AsyncRunResult> results;
  Status status = writer->WriteWindow(window, &results);
  ASSERT_EQ(results.size(), 1u);
  // The fault lands either on the run's own write (per-run status) or is
  // absorbed into the window status; either way it must not vanish.
  EXPECT_TRUE(!status.ok() || !results[0].status.ok());

  // Transient fault: the identical window succeeds on retry (the
  // CallIo-style recovery TransferPipeline applies around windows).
  env.SetPolicy(nullptr);
  results.clear();
  ASSERT_OK(writer->WriteWindow(window, &results));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_OK(results[0].status);
  PageImage got;
  ASSERT_OK(store->ReadPage(PageId{0, 3}, &got));
  EXPECT_EQ(got.lsn(), 4u);
}

}  // namespace
}  // namespace llb
