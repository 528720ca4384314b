#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "io/env.h"
#include "io/faulty_env.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "io/posix_env.h"
#include "tests/test_util.h"

namespace llb {
namespace {

TEST(MemEnvTest, CreateWriteReadBack) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f,
                       env.OpenFile("a", /*create=*/true));
  ASSERT_OK(f->Append(Slice("hello ")));
  ASSERT_OK(f->Append(Slice("world")));
  std::string out;
  ASSERT_OK(f->ReadAt(0, 100, &out));
  EXPECT_EQ(out, "hello world");
}

TEST(MemEnvTest, OpenMissingFileFails) {
  MemEnv env;
  auto r = env.OpenFile("missing", /*create=*/false);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(MemEnvTest, WriteAtExtendsWithZeros) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  ASSERT_OK(f->WriteAt(4, Slice("xy")));
  std::string out;
  ASSERT_OK(f->ReadAt(0, 10, &out));
  EXPECT_EQ(out, std::string("\0\0\0\0xy", 6));
}

TEST(MemEnvTest, DeleteAndList) {
  MemEnv env;
  ASSERT_OK(env.OpenFile("a", true).status());
  ASSERT_OK(env.OpenFile("b", true).status());
  EXPECT_EQ(env.ListFiles().size(), 2u);
  ASSERT_OK(env.DeleteFile("a"));
  EXPECT_FALSE(env.FileExists("a"));
  EXPECT_TRUE(env.FileExists("b"));
}

TEST(MemEnvTest, CrashDiscardsUnsyncedData) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  ASSERT_OK(f->Append(Slice("durable")));
  ASSERT_OK(f->Sync());
  ASSERT_OK(f->Append(Slice(" volatile")));
  env.CrashAndRestart();
  std::string out;
  ASSERT_OK(f->ReadAt(0, 100, &out));
  EXPECT_EQ(out, "durable");
}

TEST(MemEnvTest, CrashWithNoSyncLosesEverything) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  ASSERT_OK(f->Append(Slice("gone")));
  env.CrashAndRestart();
  ASSERT_OK_AND_ASSIGN(uint64_t size, f->Size());
  EXPECT_EQ(size, 0u);
}

TEST(MemEnvTest, TruncateShrinksAndExtends) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  ASSERT_OK(f->Append(Slice("abcdef")));
  ASSERT_OK(f->Truncate(3));
  std::string out;
  ASSERT_OK(f->ReadAt(0, 10, &out));
  EXPECT_EQ(out, "abc");
}

TEST(MemEnvTest, DurableEventCounting) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  EXPECT_EQ(env.durable_events(), 0u);
  ASSERT_OK(f->Append(Slice("x")));
  ASSERT_OK(f->Sync());
  ASSERT_OK(f->Sync());
  EXPECT_EQ(env.durable_events(), 2u);
}

TEST(FaultInjectionTest, CountdownFailsAfterBudget) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  CountdownFaultInjector injector(2);
  env.SetFaultInjector(&injector);
  ASSERT_OK(f->Append(Slice("1")));
  ASSERT_OK(f->Sync());
  ASSERT_OK(f->Append(Slice("2")));
  ASSERT_OK(f->Sync());
  ASSERT_OK(f->Append(Slice("3")));
  EXPECT_FALSE(f->Sync().ok());  // third durable event vetoed
  EXPECT_TRUE(env.io_blocked());
  // All IO now fails until restart.
  EXPECT_FALSE(f->Append(Slice("4")).ok());
  std::string out;
  EXPECT_FALSE(f->ReadAt(0, 1, &out).ok());
}

TEST(FaultInjectionTest, CrashClearsFaultAndRevertsToDurable) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  ASSERT_OK(f->Append(Slice("keep")));
  ASSERT_OK(f->Sync());
  CountdownFaultInjector injector(0);
  env.SetFaultInjector(&injector);
  ASSERT_OK(f->Append(Slice("lost")));
  EXPECT_FALSE(f->Sync().ok());
  env.CrashAndRestart();
  std::string out;
  ASSERT_OK(f->ReadAt(0, 100, &out));
  EXPECT_EQ(out, "keep");
  ASSERT_OK(f->Sync());  // injector cleared
}

TEST(FaultInjectionTest, RecordingInjectorCounts) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  RecordingInjector recorder;
  env.SetFaultInjector(&recorder);
  ASSERT_OK(f->Sync());
  ASSERT_OK(f->Sync());
  ASSERT_OK(f->Sync());
  EXPECT_EQ(recorder.count(), 3u);
}

TEST(FaultInjectionTest, CrashAtEventInjectorFailsExactlyNth) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  CrashAtEventInjector injector(3);
  env.SetFaultInjector(&injector);
  ASSERT_OK(f->Sync());
  ASSERT_OK(f->Sync());
  EXPECT_FALSE(f->Sync().ok());
}

/// Reads `chunks` buffers of `size` bytes each at `offset` via ReadAtv
/// and returns them concatenated.
std::string ReadVectored(const File& f, uint64_t offset, size_t chunks,
                         size_t size) {
  std::vector<std::string> buffers(chunks, std::string(size, 'X'));
  std::vector<IoBuffer> iov(chunks);
  for (size_t i = 0; i < chunks; ++i) iov[i] = {buffers[i].data(), size};
  Status s = f.ReadAtv(offset, iov);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::string out;
  for (const std::string& b : buffers) out += b;
  return out;
}

TEST(ReadAtvTest, MemEnvFillsChunksAndZeroFillsPastEof) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  ASSERT_OK(f->Append(Slice("abcdefgh")));
  // Two chunks inside the file, one straddling EOF, one fully past it.
  EXPECT_EQ(ReadVectored(*f, 0, 2, 3), "abcdef");
  EXPECT_EQ(ReadVectored(*f, 6, 2, 3), std::string("gh\0\0\0\0", 6));
  EXPECT_EQ(ReadVectored(*f, 100, 1, 4), std::string(4, '\0'));
}

TEST(ReadAtvTest, FaultyEnvDecidesOncePerBatch) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  ASSERT_OK(f->Append(Slice("0123456789abcdef")));

  // One vectored read is ONE read decision: a countdown of 2 must
  // survive a 4-chunk ReadAtv and fire on the next one.
  ScriptedFaultPolicy policy(
      {{FaultOp::kReadAt, "a", /*countdown=*/2, FaultAction::kFail}});
  env.SetPolicy(&policy);
  EXPECT_EQ(ReadVectored(*f, 0, 4, 4), "0123456789abcdef");
  std::vector<std::string> buffers(4, std::string(4, 'X'));
  std::vector<IoBuffer> iov(4);
  for (size_t i = 0; i < 4; ++i) iov[i] = {buffers[i].data(), 4};
  Status s = f->ReadAtv(0, iov);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_EQ(policy.fired(), 1u);
  env.SetPolicy(nullptr);
  EXPECT_EQ(ReadVectored(*f, 0, 4, 4), "0123456789abcdef");
}

TEST(ReadAtvTest, FaultyEnvCorruptsOneBitOfTheMiddleChunk) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  std::string payload(12, 'a');
  ASSERT_OK(f->Append(Slice(payload)));

  ScriptedFaultPolicy policy(
      {{FaultOp::kReadAt, "a", /*countdown=*/1, FaultAction::kCorrupt}});
  env.SetPolicy(&policy);
  std::string rotten = ReadVectored(*f, 0, 3, 4);
  env.SetPolicy(nullptr);
  ASSERT_EQ(rotten.size(), payload.size());
  size_t diffs = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    if (rotten[i] != payload[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);                       // exactly one flipped byte
  EXPECT_NE(rotten.substr(4, 4), payload.substr(4, 4));  // in chunk 1 of 3
  EXPECT_EQ(env.stats().corruptions, 1u);
}

/// One PosixEnv over a fresh mkdtemp root per test.
struct PosixFixture {
  std::string root;
  std::unique_ptr<PosixEnv> env;

  explicit PosixFixture(PosixEnvOptions options = PosixEnvOptions()) {
    std::string tmpl = "/tmp/llb_posix_XXXXXX";
    char* dir = mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    root = dir;
    Result<std::unique_ptr<PosixEnv>> opened = PosixEnv::Open(root, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (opened.ok()) env = std::move(*opened);
  }

  ~PosixFixture() {
    if (env != nullptr) {
      for (const std::string& name : env->ListFiles()) {
        (void)env->DeleteFile(name);
      }
    }
    env.reset();
    rmdir(root.c_str());
  }
};

TEST(PosixEnvTest, WriteReadAppendTruncateRoundTrip) {
  PosixFixture fx;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, fx.env->OpenFile("a", true));
  ASSERT_OK(f->Append(Slice("hello ")));
  ASSERT_OK(f->Append(Slice("world")));
  std::string out;
  ASSERT_OK(f->ReadAt(0, 100, &out));
  EXPECT_EQ(out, "hello world");

  ASSERT_OK(f->WriteAt(0, Slice("HELLO")));
  out.clear();  // ReadAt appends by contract
  ASSERT_OK(f->ReadAt(0, 11, &out));
  EXPECT_EQ(out, "HELLO world");

  // WriteAt past EOF extends with zeros, like MemEnv.
  ASSERT_OK(f->WriteAt(13, Slice("xy")));
  out.clear();
  ASSERT_OK(f->ReadAt(11, 4, &out));
  EXPECT_EQ(out, std::string("\0\0xy", 4));
  ASSERT_OK_AND_ASSIGN(uint64_t size, f->Size());
  EXPECT_EQ(size, 15u);

  ASSERT_OK(f->Truncate(5));
  out.clear();
  ASSERT_OK(f->ReadAt(0, 100, &out));
  EXPECT_EQ(out, "HELLO");
  ASSERT_OK(f->Sync());
}

TEST(PosixEnvTest, VectoredReadAndWrite) {
  PosixFixture fx;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, fx.env->OpenFile("v", true));
  std::string a(4096, 'a');
  std::string b(4096, 'b');
  ASSERT_OK(f->WriteAtv(0, {Slice(a), Slice(b)}));
  ASSERT_OK(f->Sync());
  EXPECT_EQ(ReadVectored(*f, 0, 2, 4096), a + b);
  // Straddling EOF zero-fills, matching the MemEnv contract.
  EXPECT_EQ(ReadVectored(*f, 4096, 2, 4096), b + std::string(4096, '\0'));
}

TEST(PosixEnvTest, SharedHandleMissingFileDeleteAndList) {
  PosixFixture fx;
  auto missing = fx.env->OpenFile("nope", /*create=*/false);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f1, fx.env->OpenFile("a", true));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f2, fx.env->OpenFile("a", true));
  EXPECT_EQ(f1.get(), f2.get());  // same handle: the PageStore contract

  ASSERT_OK(fx.env->OpenFile("b", true).status());
  std::vector<std::string> files = fx.env->ListFiles();
  EXPECT_EQ(files.size(), 2u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  EXPECT_TRUE(fx.env->FileExists("a"));
  ASSERT_OK(fx.env->DeleteFile("a"));
  EXPECT_FALSE(fx.env->FileExists("a"));
  EXPECT_TRUE(fx.env->FileExists("b"));
}

TEST(PosixEnvTest, DataSurvivesHandleDropAndReopen) {
  PosixFixture fx;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f,
                         fx.env->OpenFile("persist", true));
    ASSERT_OK(f->Append(Slice("durable bytes")));
    ASSERT_OK(f->Sync());
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> again,
                       fx.env->OpenFile("persist", false));
  std::string out;
  ASSERT_OK(again->ReadAt(0, 100, &out));
  EXPECT_EQ(out, "durable bytes");
}

TEST(PosixEnvTest, DirectIoFallsBackGracefully) {
  // O_DIRECT may be refused (tmpfs): the env must still work, routing
  // aligned and unaligned IO alike through whatever path is available.
  PosixEnvOptions options;
  options.direct_io = true;
  PosixFixture fx(options);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, fx.env->OpenFile("d", true));
  std::string page(4096, 'p');
  ASSERT_OK(f->WriteAt(0, Slice(page)));       // aligned
  ASSERT_OK(f->WriteAt(4096, Slice("tail")));  // unaligned
  ASSERT_OK(f->Sync());
  std::string out;
  ASSERT_OK(f->ReadAt(0, 4096, &out));  // aligned read
  EXPECT_EQ(out, page);
  out.clear();  // ReadAt appends by contract
  ASSERT_OK(f->ReadAt(4096, 4, &out));  // unaligned read
  EXPECT_EQ(out, "tail");
}

TEST(LatencyEnvTest, PassesOperationsThroughAndCountsCharges) {
  MemEnv base;
  // Tiny charges keep the test fast while still exercising the sleeps.
  LatencyProfile profile;
  profile.seek_us = 1;
  profile.sync_us = 1;
  profile.bytes_per_us = 1024;
  LatencyEnv env(&base, profile);

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("a", true));
  ASSERT_OK(f->Append(Slice("hello")));
  ASSERT_OK(f->Sync());
  std::string out;
  ASSERT_OK(f->ReadAt(0, 5, &out));
  EXPECT_EQ(out, "hello");

  // A vectored op charges ONE seek for the whole batch — the batching
  // payoff the profile models.
  std::string a(1024, 'a');
  ASSERT_OK(f->WriteAtv(5, {Slice(a), Slice(a)}));
  EXPECT_EQ(ReadVectored(*f, 5, 2, 1024), a + a);

  LatencyEnvStats stats = env.stats();
  EXPECT_EQ(stats.ops, 4u);    // append, read, writev, readv
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.bytes, 5u + 5u + 2048u + 2048u);
  EXPECT_GT(stats.simulated_us, 0u);

  // The wrapped file is the same underlying MemEnv file.
  EXPECT_TRUE(env.FileExists("a"));
  EXPECT_TRUE(base.FileExists("a"));
  ASSERT_OK(env.DeleteFile("a"));
  EXPECT_FALSE(base.FileExists("a"));
}

}  // namespace
}  // namespace llb
