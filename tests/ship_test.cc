#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "filestore/file_ops.h"
#include "filestore/filestore.h"
#include "io/durable_cursor.h"
#include "ship/log_shipper.h"
#include "ship/standby_applier.h"
#include "tests/test_util.h"
#include "torture/torture_util.h"

namespace llb {
namespace {

DbOptions SmallOptions() {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 32;
  options.cache_pages = 16;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  return options;
}

/// Primary + standby twins over one fault-injectable env, wired through a
/// FileShipChannel spool — the unit-test sibling of the kLogShipping
/// torture scenario.
struct ShipRig {
  TortureEngine engine{SmallOptions()};
  std::unique_ptr<FileShipChannel> channel;
  std::unique_ptr<LogShipper> shipper;
  std::unique_ptr<StandbyApplier> applier;

  Status Open(const ShipperOptions& ship_options = {}) {
    LLB_RETURN_IF_ERROR(engine.Open());
    LLB_RETURN_IF_ERROR(engine.OpenStandby());
    channel = std::make_unique<FileShipChannel>(&engine.env, "ship");
    shipper = std::make_unique<LogShipper>(
        &engine.env, engine.name, engine.db->log(), channel.get(),
        ship_options);
    LLB_RETURN_IF_ERROR(shipper->Attach());
    applier =
        std::make_unique<StandbyApplier>(engine.standby.get(), channel.get());
    return applier->CatchUpFromLocalLog();
  }

  Status Update(uint32_t rounds, int64_t salt) {
    FileStore files(engine.db.get(), /*partition=*/0, /*base_page=*/0,
                    /*pages_per_file=*/1, /*num_files=*/24);
    for (uint32_t i = 0; i < rounds; ++i) {
      uint32_t f = (i * 7 + static_cast<uint32_t>(salt)) % 24;
      LLB_RETURN_IF_ERROR(
          files.WriteValues(f, {salt + i, static_cast<int64_t>(f)}));
    }
    LLB_RETURN_IF_ERROR(engine.db->FlushAll());
    return engine.db->ForceLog();
  }

  Status Replicate() {
    LLB_RETURN_IF_ERROR(shipper->Pump());
    return applier->Drain();
  }

  Lsn primary_tail() { return engine.db->log()->durable_lsn(); }
  Lsn standby_tail() { return engine.standby->log()->durable_lsn(); }
};

/// Encodes all durable records in [first, last] into one frame, the way
/// the shipper would — for tests that need hand-delivered frames.
Result<ShipFrame> BuildFrame(LogManager* log, uint64_t seq, Lsn first,
                             Lsn last) {
  ShipFrame frame;
  frame.seq = seq;
  frame.first_lsn = first;
  frame.last_lsn = last;
  LLB_RETURN_IF_ERROR(log->Scan(first, [&](const LogRecord& rec) {
    if (rec.lsn <= last) rec.EncodeTo(&frame.bytes);
    return Status::OK();
  }));
  return frame;
}

// ---------- frame wire format ----------

TEST(ShipFrameTest, EncodeDecodeRoundTrip) {
  ShipFrame frame;
  frame.seq = 42;
  frame.first_lsn = 100;
  frame.last_lsn = 117;
  frame.bytes = "framed records go here";
  std::string wire;
  frame.EncodeTo(&wire);

  ShipFrame decoded;
  ASSERT_OK(ShipFrame::DecodeFrom(Slice(wire), &decoded));
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(decoded.first_lsn, 100u);
  EXPECT_EQ(decoded.last_lsn, 117u);
  EXPECT_EQ(decoded.bytes, frame.bytes);
}

TEST(ShipFrameTest, DetectsCorruptionAndTruncation) {
  ShipFrame frame;
  frame.seq = 1;
  frame.first_lsn = 1;
  frame.last_lsn = 2;
  frame.bytes = "payload";
  std::string wire;
  frame.EncodeTo(&wire);

  ShipFrame out;
  for (size_t i = 0; i < wire.size(); i += 5) {
    std::string rotten = wire;
    rotten[i] ^= 0x01;
    EXPECT_TRUE(ShipFrame::DecodeFrom(Slice(rotten), &out).IsCorruption())
        << "flip at byte " << i;
  }
  std::string torn = wire.substr(0, wire.size() - 3);
  EXPECT_TRUE(ShipFrame::DecodeFrom(Slice(torn), &out).IsCorruption());
  std::string padded = wire + "x";
  EXPECT_TRUE(ShipFrame::DecodeFrom(Slice(padded), &out).IsCorruption());
}

// ---------- channels ----------

TEST(ShipChannelTest, FileChannelSendPollTrim) {
  MemEnv env;
  FileShipChannel channel(&env, "spool");
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ShipFrame frame;
    frame.seq = seq;
    frame.first_lsn = seq * 10;
    frame.last_lsn = seq * 10 + 5;
    frame.bytes = "seg" + std::to_string(seq);
    ASSERT_OK(channel.Send(frame));
  }
  std::vector<ShipFrame> polled;
  ASSERT_OK(channel.Poll(1, &polled));
  EXPECT_EQ(polled.size(), 3u);
  polled.clear();
  ASSERT_OK(channel.Poll(3, &polled));
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_EQ(polled[0].seq, 3u);
  EXPECT_EQ(polled[0].bytes, "seg3");

  ASSERT_OK(channel.Trim(2));
  polled.clear();
  ASSERT_OK(channel.Poll(1, &polled));
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_EQ(polled[0].seq, 3u);
  // Trimming already-trimmed ground is a no-op, not an error.
  ASSERT_OK(channel.Trim(2));
}

TEST(ShipChannelTest, FileChannelResendOverwrites) {
  MemEnv env;
  FileShipChannel channel(&env, "spool");
  ShipFrame frame;
  frame.seq = 1;
  frame.first_lsn = 1;
  frame.last_lsn = 1;
  frame.bytes = "v1";
  ASSERT_OK(channel.Send(frame));
  frame.last_lsn = 9;
  frame.bytes = "v2-longer";
  ASSERT_OK(channel.Send(frame));
  std::vector<ShipFrame> polled;
  ASSERT_OK(channel.Poll(1, &polled));
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_EQ(polled[0].bytes, "v2-longer");
  EXPECT_EQ(polled[0].last_lsn, 9u);
}

TEST(ShipChannelTest, FileChannelHidesTornFrameUntilResend) {
  MemEnv base;
  FaultyEnv env(&base);
  FileShipChannel channel(&env, "spool");
  ShipFrame frame;
  frame.seq = 1;
  frame.first_lsn = 1;
  frame.last_lsn = 4;
  frame.bytes = "records";

  ScriptedFaultPolicy rot(
      {{FaultOp::kWriteAt, "spool.f", 1, FaultAction::kCorrupt}});
  env.SetPolicy(&rot);
  ASSERT_OK(channel.Send(frame));  // silently rotten on the way down
  env.SetPolicy(nullptr);
  EXPECT_EQ(rot.fired(), 1u);

  // The envelope crc rejects the frame at Poll: transient absence.
  std::vector<ShipFrame> polled;
  ASSERT_OK(channel.Poll(1, &polled));
  EXPECT_TRUE(polled.empty());

  // A clean re-send of the same seq heals the spool.
  ASSERT_OK(channel.Send(frame));
  ASSERT_OK(channel.Poll(1, &polled));
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_EQ(polled[0].bytes, "records");
}

TEST(ShipChannelTest, InProcessChannelFailAndCorruptPolicies) {
  InProcessShipChannel channel;
  ShipFrame frame;
  frame.seq = 1;
  frame.first_lsn = 1;
  frame.last_lsn = 1;
  frame.bytes = "payload";

  ScriptedFaultPolicy fail(
      {{FaultOp::kWriteAt, "ship.chan", 1, FaultAction::kFail}});
  channel.SetPolicy(&fail);
  EXPECT_TRUE(channel.Send(frame).IsIoError());
  channel.SetPolicy(nullptr);
  EXPECT_EQ(channel.pending(), 0u);  // failed send stores nothing

  ASSERT_OK(channel.Send(frame));
  EXPECT_EQ(channel.pending(), 1u);
  std::vector<ShipFrame> polled;
  ASSERT_OK(channel.Poll(1, &polled));
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_EQ(polled[0].bytes, "payload");
}

// ---------- shipper + applier end to end ----------

TEST(LogShippingTest, ReplicatesPrimaryToStandby) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(10, 1000));
  ASSERT_OK(rig.Replicate());

  EXPECT_EQ(rig.applier->applied_lsn(), rig.primary_tail());
  EXPECT_EQ(rig.standby_tail(), rig.primary_tail());
  ShipStats stats = rig.shipper->stats();
  EXPECT_GT(stats.frames_sent, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_EQ(stats.last_shipped_lsn, rig.primary_tail());
  EXPECT_GT(rig.applier->stats().records_applied, 0u);

  StandbyStatus status = rig.applier->GatherStatus(rig.primary_tail());
  EXPECT_EQ(status.lsns_behind, 0u);
  EXPECT_EQ(status.segments_behind, 0u);
  EXPECT_FALSE(status.promoted);

  // The standby's stable store equals the oracle of its own log.
  ASSERT_OK(torture::VerifyDbAgainstOwnLog(&rig.engine,
                                           rig.engine.standby.get()));
}

TEST(LogShippingTest, LagIsVisibleBeforeDrain) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(6, 2000));
  ASSERT_OK(rig.shipper->Pump());  // shipped but not yet applied

  StandbyStatus status = rig.applier->GatherStatus(rig.primary_tail());
  EXPECT_GT(status.lsns_behind, 0u);
  ASSERT_OK(rig.applier->Drain());
  status = rig.applier->GatherStatus(rig.primary_tail());
  EXPECT_EQ(status.lsns_behind, 0u);
}

TEST(LogShippingTest, CursorResumesAcrossShipperRestart) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(8, 3000));
  ASSERT_OK(rig.Replicate());
  Lsn shipped = rig.shipper->stats().last_shipped_lsn;
  rig.shipper.reset();

  // A new shipper resumes from the durable cursor: nothing durable past
  // it, so Attach builds no catch-up frame.
  rig.shipper = std::make_unique<LogShipper>(
      &rig.engine.env, rig.engine.name, rig.engine.db->log(),
      rig.channel.get());
  ASSERT_OK(rig.shipper->Attach());
  EXPECT_EQ(rig.shipper->stats().resyncs, 0u);
  EXPECT_EQ(rig.shipper->stats().last_shipped_lsn, shipped);

  ASSERT_OK(rig.Update(5, 4000));
  ASSERT_OK(rig.Replicate());
  EXPECT_EQ(rig.applier->applied_lsn(), rig.primary_tail());
}

TEST(LogShippingTest, AttachCatchesUpRecordsSealedWhileDetached) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(4, 5000));
  ASSERT_OK(rig.Replicate());
  rig.shipper.reset();  // detached: seals go unobserved

  ASSERT_OK(rig.Update(6, 6000));
  rig.shipper = std::make_unique<LogShipper>(
      &rig.engine.env, rig.engine.name, rig.engine.db->log(),
      rig.channel.get());
  ASSERT_OK(rig.shipper->Attach());
  // The gap between the cursor and the durable tail ships as one
  // catch-up frame.
  EXPECT_EQ(rig.shipper->stats().resyncs, 1u);
  ASSERT_OK(rig.Replicate());
  EXPECT_EQ(rig.applier->applied_lsn(), rig.primary_tail());
  ASSERT_OK(torture::VerifyDbAgainstOwnLog(&rig.engine,
                                           rig.engine.standby.get()));
}

TEST(LogShippingTest, ShipperSurvivesCorruptCursor) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(5, 7000));
  ASSERT_OK(rig.Replicate());
  rig.shipper.reset();

  // Rot the durable cursor. Attach must fall back to a from-scratch
  // re-ship; the applier dedups the overlap by LSN.
  {
    ASSERT_OK_AND_ASSIGN(
        std::shared_ptr<File> f,
        rig.engine.env.OpenFile(LogShipper::CursorName(rig.engine.name),
                                /*create=*/false));
    ASSERT_OK(f->WriteAt(0, Slice("garbage-cursor-bytes")));
    ASSERT_OK(f->Sync());
  }
  rig.shipper = std::make_unique<LogShipper>(
      &rig.engine.env, rig.engine.name, rig.engine.db->log(),
      rig.channel.get());
  ASSERT_OK(rig.shipper->Attach());
  EXPECT_EQ(rig.shipper->stats().resyncs, 1u);
  ASSERT_OK(rig.Replicate());
  EXPECT_EQ(rig.applier->applied_lsn(), rig.primary_tail());
  EXPECT_GT(rig.applier->stats().frames_duplicate +
                rig.applier->stats().frames_applied,
            0u);
  ASSERT_OK(torture::VerifyDbAgainstOwnLog(&rig.engine,
                                           rig.engine.standby.get()));
}

TEST(LogShippingTest, PumpRetriesTransientSendFault) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(4, 8000));

  ScriptedFaultPolicy drop(
      {{FaultOp::kWriteAt, "ship.f", 1, FaultAction::kFail}});
  rig.engine.env.SetPolicy(&drop);
  ASSERT_OK(rig.shipper->Pump());
  rig.engine.env.SetPolicy(nullptr);
  EXPECT_EQ(drop.fired(), 1u);
  EXPECT_GE(rig.shipper->stats().retries, 1u);
  EXPECT_EQ(rig.shipper->stats().send_failures, 0u);

  ASSERT_OK(rig.applier->Drain());
  EXPECT_EQ(rig.applier->applied_lsn(), rig.primary_tail());
}

TEST(LogShippingTest, PumpKeepsFrameQueuedAfterRetriesExhausted) {
  ShipperOptions ship_options;
  ship_options.max_retries = 1;  // two attempts per frame
  ShipRig rig;
  ASSERT_OK(rig.Open(ship_options));
  ASSERT_OK(rig.Update(4, 9000));

  ScriptedFaultPolicy wall({
      {FaultOp::kWriteAt, "ship.f", 1, FaultAction::kFail},
      {FaultOp::kWriteAt, "ship.f", 1, FaultAction::kFail},
  });
  rig.engine.env.SetPolicy(&wall);
  Status s = rig.shipper->Pump();
  rig.engine.env.SetPolicy(nullptr);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_EQ(rig.shipper->stats().send_failures, 1u);
  EXPECT_GT(rig.shipper->backlog(), 0u);
  EXPECT_EQ(rig.shipper->stats().last_shipped_lsn, 0u);  // cursor unmoved

  // The next Pump re-sends the queued frame; nothing was lost.
  ASSERT_OK(rig.Replicate());
  EXPECT_EQ(rig.applier->applied_lsn(), rig.primary_tail());
}

TEST(LogShippingTest, ResyncRepairsFrameRottenAfterCursorAdvanced) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(4, 10000));
  ASSERT_OK(rig.Replicate());
  Lsn before = rig.applier->applied_lsn();

  // The frame rots on the way into the spool but the send itself
  // succeeds, so the cursor advances past the range: only Resync (the
  // NAK path) can rebuild it.
  ASSERT_OK(rig.Update(4, 11000));
  ScriptedFaultPolicy rot(
      {{FaultOp::kWriteAt, "ship.f", 1, FaultAction::kCorrupt}});
  rig.engine.env.SetPolicy(&rot);
  ASSERT_OK(rig.shipper->Pump());
  rig.engine.env.SetPolicy(nullptr);
  EXPECT_EQ(rot.fired(), 1u);

  ASSERT_OK(rig.applier->Drain());
  EXPECT_EQ(rig.applier->applied_lsn(), before);  // gap: frame invisible
  EXPECT_LT(rig.applier->applied_lsn(), rig.primary_tail());

  ASSERT_OK(rig.shipper->Resync(rig.applier->applied_lsn() + 1));
  ASSERT_OK(rig.Replicate());
  EXPECT_EQ(rig.applier->applied_lsn(), rig.primary_tail());
  ASSERT_OK(torture::VerifyDbAgainstOwnLog(&rig.engine,
                                           rig.engine.standby.get()));
}

// ---------- applier ordering, dedup, overlap ----------

TEST(StandbyApplierTest, BuffersOutOfOrderFramesUntilGapFills) {
  TortureEngine engine(SmallOptions());
  ASSERT_OK(engine.Open());
  ASSERT_OK(engine.OpenStandby());
  FileStore files(engine.db.get(), 0, 0, 1, 24);
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_OK(files.WriteValues(i % 24, {static_cast<int64_t>(i), 5}));
  }
  ASSERT_OK(engine.db->FlushAll());
  ASSERT_OK(engine.db->ForceLog());
  Lsn tail = engine.db->log()->durable_lsn();
  Lsn mid = tail / 2;
  ASSERT_GT(mid, 1u);

  InProcessShipChannel channel;
  StandbyApplier applier(engine.standby.get(), &channel);
  ASSERT_OK(applier.CatchUpFromLocalLog());

  // Deliver the second half first: it must buffer, not apply.
  ASSERT_OK_AND_ASSIGN(
      ShipFrame late, BuildFrame(engine.db->log(), 2, mid + 1, tail));
  ASSERT_OK(channel.Send(late));
  ASSERT_OK(applier.Drain());
  EXPECT_EQ(applier.applied_lsn(), 0u);
  StandbyStatus status = applier.GatherStatus();
  EXPECT_EQ(status.segments_behind, 1u);
  EXPECT_GT(status.lsns_behind, 0u);
  EXPECT_GT(status.bytes_behind, 0u);

  // The missing first half arrives; both frames apply in order.
  ASSERT_OK_AND_ASSIGN(ShipFrame early,
                       BuildFrame(engine.db->log(), 1, 1, mid));
  ASSERT_OK(channel.Send(early));
  ASSERT_OK(applier.Drain());
  EXPECT_EQ(applier.applied_lsn(), tail);
  EXPECT_EQ(applier.stats().frames_applied, 2u);
  EXPECT_EQ(channel.pending(), 0u);  // consumed frames trimmed
  ASSERT_OK(torture::VerifyDbAgainstOwnLog(&engine, engine.standby.get()));
}

TEST(StandbyApplierTest, DropsDuplicatesAndTrimsOverlap) {
  TortureEngine engine(SmallOptions());
  ASSERT_OK(engine.Open());
  ASSERT_OK(engine.OpenStandby());
  FileStore files(engine.db.get(), 0, 0, 1, 24);
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_OK(files.WriteValues(i % 24, {static_cast<int64_t>(i), 6}));
  }
  ASSERT_OK(engine.db->FlushAll());
  ASSERT_OK(engine.db->ForceLog());
  Lsn tail = engine.db->log()->durable_lsn();
  Lsn mid = tail / 2;
  ASSERT_GT(mid, 2u);

  InProcessShipChannel channel;
  StandbyApplier applier(engine.standby.get(), &channel);
  ASSERT_OK(applier.CatchUpFromLocalLog());

  ASSERT_OK_AND_ASSIGN(ShipFrame first,
                       BuildFrame(engine.db->log(), 1, 1, mid));
  ASSERT_OK(channel.Send(first));
  ASSERT_OK(applier.Drain());
  EXPECT_EQ(applier.applied_lsn(), mid);

  // An exact duplicate under a fresh seq is recognized and dropped.
  ASSERT_OK_AND_ASSIGN(ShipFrame dup,
                       BuildFrame(engine.db->log(), 2, 1, mid));
  ASSERT_OK(channel.Send(dup));
  ASSERT_OK(applier.Drain());
  EXPECT_EQ(applier.applied_lsn(), mid);
  EXPECT_GE(applier.stats().frames_duplicate, 1u);

  // A frame overlapping the applied prefix (re-ship after a shipper
  // crash) applies only its unseen suffix.
  ASSERT_OK_AND_ASSIGN(
      ShipFrame overlap, BuildFrame(engine.db->log(), 3, mid - 1, tail));
  ASSERT_OK(channel.Send(overlap));
  ASSERT_OK(applier.Drain());
  EXPECT_EQ(applier.applied_lsn(), tail);
  EXPECT_EQ(engine.standby->log()->durable_lsn(), tail);
  ASSERT_OK(torture::VerifyDbAgainstOwnLog(&engine, engine.standby.get()));
}

TEST(StandbyApplierTest, CountsAndSkipsCorruptFrames) {
  TortureEngine engine(SmallOptions());
  ASSERT_OK(engine.Open());
  ASSERT_OK(engine.OpenStandby());
  FileStore files(engine.db.get(), 0, 0, 1, 24);
  ASSERT_OK(files.WriteValues(3, {31, 32}));
  ASSERT_OK(engine.db->FlushAll());
  ASSERT_OK(engine.db->ForceLog());
  Lsn tail = engine.db->log()->durable_lsn();

  InProcessShipChannel channel;
  StandbyApplier applier(engine.standby.get(), &channel);
  ASSERT_OK(applier.CatchUpFromLocalLog());

  // The in-process channel's corrupt policy rots the stored payload, so
  // the frame survives the envelope but fails record validation.
  ASSERT_OK_AND_ASSIGN(ShipFrame frame,
                       BuildFrame(engine.db->log(), 1, 1, tail));
  ScriptedFaultPolicy rot(
      {{FaultOp::kWriteAt, "ship.chan", 1, FaultAction::kCorrupt}});
  channel.SetPolicy(&rot);
  ASSERT_OK(channel.Send(frame));
  channel.SetPolicy(nullptr);
  ASSERT_OK(applier.Drain());
  EXPECT_EQ(applier.stats().frames_corrupt, 1u);
  EXPECT_EQ(applier.applied_lsn(), 0u);

  // The re-sent clean copy (higher seq, same range) closes the gap.
  frame.seq = 2;
  ASSERT_OK(channel.Send(frame));
  ASSERT_OK(applier.Drain());
  EXPECT_EQ(applier.applied_lsn(), tail);
}

// A two-page Transform replays as one node with two dirty vars, which
// the standby stages on its own log before writing them. A stable write
// fault after the staging fails the frame; the retry must cut those
// staged records too, or they hold LSNs the primary ships next.
TEST(StandbyApplierTest, RetryAfterStableWriteFaultCutsEveryStagedRecord) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(6, 3000));
  ASSERT_OK(rig.Replicate());

  FileStore files(rig.engine.db.get(), 0, 0, 1, 24);
  LogRecord pair =
      MakeFileTransform({files.PagesOf(1)[0], files.PagesOf(2)[0]}, 7);
  ASSERT_OK(rig.engine.db->Execute(&pair));
  ASSERT_OK(rig.engine.db->FlushAll());
  ASSERT_OK(rig.engine.db->ForceLog());
  ASSERT_OK(rig.shipper->Pump());

  ScriptedFaultPolicy fault(
      {{FaultOp::kWriteAt, "sb.stable", 1, FaultAction::kFail}});
  rig.engine.env.SetPolicy(&fault);
  EXPECT_FALSE(rig.applier->Drain().ok());
  rig.engine.env.SetPolicy(nullptr);
  ASSERT_EQ(fault.fired(), 1u);

  ASSERT_OK(rig.applier->Drain());
  EXPECT_GT(rig.applier->stats().pages_staged, 0u);
  EXPECT_EQ(rig.applier->applied_lsn(), rig.primary_tail());
  EXPECT_EQ(rig.standby_tail(), rig.primary_tail());

  // The primary's next records land right after the standby's tail.
  ASSERT_OK(rig.Update(4, 4000));
  ASSERT_OK(rig.Replicate());
  EXPECT_EQ(rig.standby_tail(), rig.primary_tail());
  ASSERT_OK(torture::VerifyDbAgainstOwnLog(&rig.engine,
                                           rig.engine.standby.get()));
}

// ---------- standby mode + promotion ----------

TEST(StandbyModeTest, RefusesMutationsUntilPromoted) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(4, 12000));
  ASSERT_OK(rig.Replicate());
  Database* standby = rig.engine.standby.get();

  EXPECT_TRUE(standby->Checkpoint().IsFailedPrecondition());
  EXPECT_TRUE(standby->FlushAll().IsFailedPrecondition());
  EXPECT_TRUE(standby->TruncateLog(1).IsFailedPrecondition());
  EXPECT_TRUE(
      standby->TakeBackup("sb_bk", 4).status().IsFailedPrecondition());
  Status s = standby->Checkpoint();
  EXPECT_NE(s.ToString().find("standby"), std::string::npos) << s.ToString();

  // Reads are allowed (that is what a warm standby is for).
  PageImage page;
  EXPECT_OK(standby->ReadPage(PageId{0, 0}, &page));
}

TEST(StandbyModeTest, PromoteEnablesWritesAndIsDurable) {
  ShipRig rig;
  ASSERT_OK(rig.Open());
  ASSERT_OK(rig.Update(6, 13000));
  ASSERT_OK(rig.Replicate());

  EXPECT_TRUE(rig.engine.db->Promote().IsFailedPrecondition());  // primary
  rig.shipper->Detach();
  ASSERT_OK(rig.engine.standby->Promote());
  EXPECT_FALSE(rig.engine.standby->standby());

  // The promoted twin takes writes of its own and stays self-consistent.
  FileStore standby_files(rig.engine.standby.get(), 0, 0, 1, 24);
  ASSERT_OK(standby_files.WriteValues(9, {901, 902}));
  ASSERT_OK(rig.engine.standby->FlushAll());
  ASSERT_OK(rig.engine.standby->ForceLog());
  ASSERT_OK(torture::VerifyDbAgainstOwnLog(&rig.engine,
                                           rig.engine.standby.get()));

  // Promotion is durable: reopening with the standby option still comes
  // up writable (the role file outranks the flag), and twice-promoting
  // is refused.
  EXPECT_TRUE(rig.engine.standby->Promote().IsFailedPrecondition());
  rig.applier.reset();
  rig.engine.standby.reset();
  ASSERT_OK(rig.engine.OpenStandby());
  EXPECT_FALSE(rig.engine.standby->standby());
  ASSERT_OK(rig.engine.standby->Checkpoint());
}

// ---------- durable cursor ----------

TEST(DurableCursorTest, SaveLoadOverwrite) {
  MemEnv env;
  EXPECT_TRUE(DurableCursor::Load(&env, "cur").status().IsNotFound());
  ASSERT_OK(DurableCursor::Save(&env, "cur", Slice("v1")));
  ASSERT_OK_AND_ASSIGN(std::string loaded, DurableCursor::Load(&env, "cur"));
  EXPECT_EQ(loaded, "v1");
  ASSERT_OK(DurableCursor::Save(&env, "cur", Slice("second-version")));
  ASSERT_OK_AND_ASSIGN(loaded, DurableCursor::Load(&env, "cur"));
  EXPECT_EQ(loaded, "second-version");
}

TEST(DurableCursorTest, TornTempFileDoesNotClobberPublishedValue) {
  MemEnv env;
  ASSERT_OK(DurableCursor::Save(&env, "cur", Slice("published")));
  // A crash mid-save leaves a torn temp file behind; the published copy
  // must win.
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f,
                         env.OpenFile("cur.tmp", /*create=*/true));
    ASSERT_OK(f->WriteAt(0, Slice("half-written gar")));
    ASSERT_OK(f->Sync());
  }
  ASSERT_OK_AND_ASSIGN(std::string loaded, DurableCursor::Load(&env, "cur"));
  EXPECT_EQ(loaded, "published");
}

TEST(DurableCursorTest, DetectsRot) {
  MemEnv env;
  ASSERT_OK(DurableCursor::Save(&env, "cur", Slice("payload")));
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f,
                         env.OpenFile("cur", /*create=*/false));
    ASSERT_OK(f->WriteAt(0, Slice("x")));
    ASSERT_OK(f->Sync());
  }
  EXPECT_TRUE(DurableCursor::Load(&env, "cur").status().IsCorruption());
}

}  // namespace
}  // namespace llb
