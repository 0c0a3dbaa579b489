// Crash-safety of the server's durable store table: snapshot and WAL
// codecs, torn-tail truncation, epoch filtering of stale WAL records,
// corrupt-snapshot quarantine, and full EmmServer recovery — a server
// restarted from --data-dir must rebuild exactly the store table the old
// process acked, byte for byte of the blobs it persisted.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/mapped_file.h"
#include "common/rng.h"
#include "data/generators.h"
#include "rsse/constant.h"
#include "server/client.h"
#include "server/persist.h"
#include "server/server.h"
#include "server/wire.h"

namespace rsse::server {
namespace {

/// A fresh empty directory under the test temp root, removed on teardown.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "rsse_persist_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    EXPECT_NE(mkdtemp(buf.data()), nullptr);
    path_ = buf.data();
  }

  ~TempDir() {
    // Recursive removal without shelling out: the suite only ever writes
    // flat files into the directory.
    DIR* d = opendir(path_.c_str());
    if (d != nullptr) {
      while (dirent* entry = readdir(d)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          unlink((path_ + "/" + name).c_str());
        }
      }
      closedir(d);
    }
    rmdir(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Bytes Blob(size_t n, uint8_t seed) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) b[i] = static_cast<uint8_t>(seed + i * 31);
  return b;
}

Result<Bytes> ReadFile(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::Internal("open " + path);
  Bytes out;
  uint8_t chunk[4096];
  size_t n;
  while ((n = fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out.insert(out.end(), chunk, chunk + n);
  }
  fclose(f);
  return out;
}

void WriteFile(const std::string& path, const Bytes& data) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite(data.data(), 1, data.size(), f), data.size());
  fclose(f);
}

TEST(WalCodecTest, RoundTripsMultipleRecords) {
  Bytes log;
  StorePersistence::EncodeWalRecord(7, ConstByteSpan(Blob(100, 1)), log);
  StorePersistence::EncodeWalRecord(7, ConstByteSpan(Blob(0, 0)), log);
  StorePersistence::EncodeWalRecord(9, ConstByteSpan(Blob(33, 5)), log);

  std::vector<StorePersistence::WalRecord> records;
  EXPECT_EQ(StorePersistence::DecodeWalRecords(log, records), log.size());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].epoch, 7u);
  EXPECT_EQ(records[0].payload, Blob(100, 1));
  EXPECT_TRUE(records[1].payload.empty());
  EXPECT_EQ(records[2].epoch, 9u);
  EXPECT_EQ(records[2].payload, Blob(33, 5));
}

TEST(WalCodecTest, TornTailStopsAtLastGoodRecord) {
  Bytes log;
  StorePersistence::EncodeWalRecord(1, ConstByteSpan(Blob(64, 2)), log);
  const size_t good = log.size();
  StorePersistence::EncodeWalRecord(1, ConstByteSpan(Blob(64, 3)), log);
  log.resize(log.size() - 17);  // tear the second record mid-payload

  std::vector<StorePersistence::WalRecord> records;
  EXPECT_EQ(StorePersistence::DecodeWalRecords(log, records), good);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, Blob(64, 2));
}

TEST(WalCodecTest, EveryCorruptedByteIsCaught) {
  // Wire-fuzz matrix for the record decoder: flipping any single byte of
  // a record — length, checksum, epoch, or payload — must stop the decode
  // at the record boundary, never crash, and never yield altered bytes.
  Bytes log;
  StorePersistence::EncodeWalRecord(3, ConstByteSpan(Blob(24, 9)), log);
  for (size_t i = 0; i < log.size(); ++i) {
    Bytes bad = log;
    bad[i] ^= 0x40;
    std::vector<StorePersistence::WalRecord> records;
    const size_t end = StorePersistence::DecodeWalRecords(bad, records);
    if (!records.empty()) {
      // The only way a flip survives is not possible with a sound CRC:
      // any accepted record must carry the original bytes.
      EXPECT_EQ(records[0].payload, Blob(24, 9)) << "flipped byte " << i;
      EXPECT_EQ(end, log.size());
    } else {
      EXPECT_EQ(end, 0u) << "flipped byte " << i;
    }
  }
}

TEST(WalCodecTest, TruncatedPrefixesNeverCrash) {
  Bytes log;
  StorePersistence::EncodeWalRecord(2, ConstByteSpan(Blob(40, 4)), log);
  for (size_t keep = 0; keep < log.size(); ++keep) {
    Bytes prefix(log.begin(), log.begin() + static_cast<long>(keep));
    std::vector<StorePersistence::WalRecord> records;
    EXPECT_EQ(StorePersistence::DecodeWalRecords(prefix, records), 0u);
    EXPECT_TRUE(records.empty());
  }
}

TEST(PersistTest, SnapshotRoundTripsThroughRecovery) {
  TempDir dir;
  const Bytes index = Blob(1000, 11);
  const Bytes gate = Blob(200, 13);
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ASSERT_TRUE((*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(index),
                                      ConstByteSpan(gate))
                    .ok());
  }
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->stores.size(), 1u);
  const auto& store = report->stores[0];
  EXPECT_EQ(store.store_id, 0u);
  EXPECT_TRUE(store.has_snapshot);
  EXPECT_EQ(store.epoch, 1u);
  EXPECT_EQ(store.index_blob, index);
  EXPECT_EQ(store.gate_blob, gate);
  EXPECT_TRUE(store.updates.empty());
  EXPECT_EQ(report->corrupt_snapshots, 0u);
}

TEST(PersistTest, WalReplaysInOrderAndSurvivesReopen) {
  TempDir dir;
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(
        (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(64, 1)), {}).ok());
    ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(50, 2))).ok());
    ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(60, 3))).ok());
  }
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  ASSERT_EQ(report->stores[0].updates.size(), 2u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(50, 2));
  EXPECT_EQ(report->stores[0].updates[1], Blob(60, 3));
}

TEST(PersistTest, NewSnapshotSupersedesOldWal) {
  // The crash window the epochs close: snapshot renamed, WAL not yet
  // truncated. The old generation's records must not replay on top of the
  // new index.
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(64, 1)), {}).ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(50, 2))).ok());
  // Simulate the crash: append a stale-epoch record directly (as if the
  // truncate in PersistSnapshot never ran after a epoch-2 snapshot).
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 2, 0, ConstByteSpan(Blob(64, 9)), {}).ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(50, 3))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(report->stores[0].epoch, 2u);
  EXPECT_EQ(report->stores[0].index_blob, Blob(64, 9));
  EXPECT_TRUE(report->stores[0].updates.empty())
      << "epoch-1 records must not replay onto the epoch-2 snapshot";
  EXPECT_EQ(report->stale_wal_records, 1u);
}

TEST(PersistTest, TornWalTailIsTruncatedOnDisk) {
  TempDir dir;
  const std::string wal = dir.path() + "/store-0.wal";
  Bytes log;
  StorePersistence::EncodeWalRecord(0, ConstByteSpan(Blob(40, 1)), log);
  const size_t good = log.size();
  StorePersistence::EncodeWalRecord(0, ConstByteSpan(Blob(40, 2)), log);
  log.resize(log.size() - 5);
  WriteFile(wal, log);

  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->wal_bytes_truncated, log.size() - good);
  ASSERT_EQ(report->stores.size(), 1u);
  ASSERT_EQ(report->stores[0].updates.size(), 1u);
  EXPECT_FALSE(report->stores[0].has_snapshot);

  // The tail is gone on disk too: a second recovery reports it clean.
  auto on_disk = ReadFile(wal);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk->size(), good);
}

TEST(PersistTest, CorruptSnapshotIsQuarantinedAndSlotRestartsEmpty) {
  TempDir dir;
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(
        (*p)->PersistSnapshot(3, 1, 0, ConstByteSpan(Blob(500, 7)), {}).ok());
    ASSERT_TRUE((*p)->AppendUpdate(3, 1, ConstByteSpan(Blob(30, 8))).ok());
  }
  // Flip a byte in the middle of the snapshot's blob region.
  const std::string snap = dir.path() + "/store-3.snap";
  auto bytes = ReadFile(snap);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x01;
  WriteFile(snap, *bytes);

  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corrupt_snapshots, 1u);
  EXPECT_TRUE(report->stores.empty())
      << "the WAL applies on top of the lost base and must not replay";
  EXPECT_NE(access((snap + ".corrupt").c_str(), F_OK), -1)
      << "the bad file is set aside for forensics, not deleted";
  EXPECT_EQ(access(snap.c_str(), F_OK), -1);
}

TEST(PersistTest, StrayTmpFilesAreRemoved) {
  TempDir dir;
  WriteFile(dir.path() + "/store-0.snap.tmp", Blob(64, 1));
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->stores.empty());
  EXPECT_EQ(access((dir.path() + "/store-0.snap.tmp").c_str(), F_OK), -1);
}

// --------------------------------------------------------------------------
// v2 snapshot container: the mmap-native generation.
// --------------------------------------------------------------------------

TEST(PersistV2Test, SnapshotRoundTripsWithoutLoadingTheIndex) {
  TempDir dir;
  const Bytes index = Blob(10000, 21);
  const Bytes gate = Blob(300, 23);
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*p)->PersistSnapshot(0, 3, 1, ConstByteSpan(index),
                                      ConstByteSpan(gate),
                                      SnapshotFormat::kV2)
                    .ok());
  }
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->stores.size(), 1u);
  const auto& store = report->stores[0];
  EXPECT_TRUE(store.has_snapshot);
  EXPECT_EQ(store.kind, 1u);
  EXPECT_EQ(store.epoch, 3u);
  EXPECT_EQ(store.format, 2u);
  // O(1) recovery contract: the index is NOT loaded — the caller maps
  // (or reads) [index_offset, index_offset + index_len) itself.
  EXPECT_TRUE(store.index_blob.empty());
  EXPECT_EQ(store.snapshot_path, dir.path() + "/store-0.snap");
  EXPECT_EQ(store.index_offset, 4096u);
  EXPECT_EQ(store.index_len, index.size());
  EXPECT_EQ(store.gate_blob, gate);
  auto on_disk = ReadFileRange(store.snapshot_path, store.index_offset,
                               store.index_len);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*on_disk, index);
}

TEST(PersistV2Test, EmptyGateAndIndexRoundTrip) {
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, {}, {}, SnapshotFormat::kV2).ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(report->stores[0].format, 2u);
  EXPECT_EQ(report->stores[0].index_len, 0u);
  EXPECT_TRUE(report->stores[0].gate_blob.empty());
}

TEST(PersistV2Test, HostileHeaderMatrixQuarantinesCleanly) {
  // Each corruption of the v2 header page (or the container's framing)
  // must quarantine the slot — never crash, never serve a torn base.
  struct Case {
    const char* name;
    void (*corrupt)(Bytes&);
  };
  const Case cases[] = {
      {"flipped magic", [](Bytes& f) { f[0] ^= 0xff; }},
      {"header crc mismatch", [](Bytes& f) { f[9] ^= 0x01; }},  // epoch
      {"crc field itself", [](Bytes& f) { f[53] ^= 0x01; }},
      {"gate crc mismatch", [](Bytes& f) { f.back() ^= 0x01; }},
      {"truncated to header page", [](Bytes& f) { f.resize(4096); }},
      {"truncated mid-index",
       [](Bytes& f) {
         // The guard is always true (the index alone is ~9 KB) but lets
         // the compiler see the new size cannot wrap below zero.
         if (f.size() > 4097) f.resize(f.size() - 4097);
       }},
      {"trailing garbage", [](Bytes& f) { f.resize(f.size() + 512, 0); }},
  };
  for (const Case& c : cases) {
    TempDir dir;
    {
      auto p = StorePersistence::Open(dir.path());
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE((*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(9000, 5)),
                                        ConstByteSpan(Blob(100, 6)),
                                        SnapshotFormat::kV2)
                      .ok());
    }
    const std::string snap = dir.path() + "/store-0.snap";
    auto bytes = ReadFile(snap);
    ASSERT_TRUE(bytes.ok());
    c.corrupt(*bytes);
    WriteFile(snap, *bytes);
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    auto report = (*p)->Recover();
    ASSERT_TRUE(report.ok()) << c.name;
    EXPECT_EQ(report->corrupt_snapshots, 1u) << c.name;
    EXPECT_TRUE(report->stores.empty()) << c.name;
    EXPECT_NE(access((snap + ".corrupt").c_str(), F_OK), -1) << c.name;
  }
}

TEST(PersistV2Test, TruncatedBelowOnePageIsQuarantined) {
  TempDir dir;
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(500, 5)),
                                      {}, SnapshotFormat::kV2)
                    .ok());
  }
  const std::string snap = dir.path() + "/store-0.snap";
  auto bytes = ReadFile(snap);
  ASSERT_TRUE(bytes.ok());
  bytes->resize(100);  // shorter than the header page, longer than a magic
  WriteFile(snap, *bytes);
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corrupt_snapshots, 1u);
  EXPECT_TRUE(report->stores.empty());
}

TEST(PersistV2Test, EpochFilteringWorksAcrossFormats) {
  // A v2 snapshot supersedes a v1-era WAL exactly like a v1 snapshot
  // would: epoch tags are format-independent.
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(64, 1)), {}).ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(50, 2))).ok());
  ASSERT_TRUE((*p)->PersistSnapshot(0, 2, 0, ConstByteSpan(Blob(2000, 9)),
                                    {}, SnapshotFormat::kV2)
                  .ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(50, 3))).ok());
  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(report->stores[0].epoch, 2u);
  EXPECT_EQ(report->stores[0].format, 2u);
  EXPECT_EQ(report->stores[0].index_len, 2000u);
  EXPECT_TRUE(report->stores[0].updates.empty());
  EXPECT_EQ(report->stale_wal_records, 1u);
}

TEST(PersistTest, InjectedTornSnapshotWriteLeavesOldSnapshotIntact) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(128, 1)), {}).ok());

  failpoint::Set("persist_snapshot_write", "torn*1");
  EXPECT_FALSE(
      (*p)->PersistSnapshot(0, 2, 0, ConstByteSpan(Blob(128, 2)), {}).ok());
  failpoint::ClearAll();

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(report->stores[0].epoch, 1u);
  EXPECT_EQ(report->stores[0].index_blob, Blob(128, 1))
      << "a failed snapshot write must leave the previous epoch durable";
}

TEST(PersistTest, InjectedTornWalAppendRollsBackBeforeLaterAppends) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 1))).ok());
  failpoint::Set("persist_wal_append", "torn*1");
  EXPECT_FALSE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 2))).ok());
  failpoint::ClearAll();
  // The torn record must be rolled back at append time: recovery stops at
  // the first bad record, so an acked append landing after leftover
  // garbage would be silently dropped.
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 3))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  ASSERT_EQ(report->stores[0].updates.size(), 2u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(80, 1));
  EXPECT_EQ(report->stores[0].updates[1], Blob(80, 3))
      << "the acked append after the failed one must survive recovery";
  EXPECT_EQ(report->wal_bytes_truncated, 0u)
      << "the torn record must already be gone from disk";
}

TEST(PersistTest, InjectedWalFsyncFailureRollsBackTheRecord) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  // Unlike a torn write, a failed fsync leaves a fully-written record in
  // the file; replaying it would apply a nacked batch.
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 1))).ok());
  failpoint::Set("persist_wal_fsync", "error*1");
  EXPECT_FALSE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 2))).ok());
  failpoint::ClearAll();
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 3))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  ASSERT_EQ(report->stores[0].updates.size(), 2u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(80, 1));
  EXPECT_EQ(report->stores[0].updates[1], Blob(80, 3))
      << "the nacked batch's record must not replay";
}

TEST(PersistTest, UnrollbackableTornAppendPoisonsTheSlot) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 1))).ok());
  failpoint::Set("persist_wal_append", "torn*1");
  failpoint::Set("persist_wal_rollback", "error*1");
  EXPECT_FALSE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 2))).ok());
  failpoint::ClearAll();
  // The torn record could not be removed, so the slot must refuse further
  // appends — acking one would park it behind the garbage.
  EXPECT_FALSE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 3))).ok());
  // A clean snapshot truncates the log and re-enables appends.
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(64, 4)), {}).ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(80, 5))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(report->stores[0].index_blob, Blob(64, 4));
  ASSERT_EQ(report->stores[0].updates.size(), 1u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(80, 5));
}

TEST(PersistTest, DirFsyncFailureAfterRenameStillCommitsTheSnapshot) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  // The rename is the commit point: a recovery loads the new snapshot, so
  // nacking the Setup would leave the caller acking updates under an
  // epoch recovery skips as stale.
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(64, 1)), {}).ok());
  failpoint::Set("persist_dir_fsync", "error*1");
  EXPECT_TRUE(
      (*p)->PersistSnapshot(0, 2, 0, ConstByteSpan(Blob(64, 2)), {}).ok());
  failpoint::ClearAll();
  // Which snapshot a crash would resurrect is ambiguous until the next
  // clean snapshot, so no update may be acked under either epoch.
  EXPECT_FALSE((*p)->AppendUpdate(0, 2, ConstByteSpan(Blob(40, 3))).ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 3, 0, ConstByteSpan(Blob(64, 4)), {}).ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 3, ConstByteSpan(Blob(40, 5))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(report->stores[0].epoch, 3u);
  EXPECT_EQ(report->stores[0].index_blob, Blob(64, 4));
  ASSERT_EQ(report->stores[0].updates.size(), 1u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(40, 5));
}

TEST(ServerRecoveryTest, UpdateBuiltStoreSurvivesRestart) {
  // An update-built dictionary (WAL only, no snapshot) must come back:
  // kill the first server after acked updates, boot a second from the
  // same directory, and read the store stats.
  TempDir dir;
  ServerOptions options;
  options.port = 0;
  options.data_dir = dir.path();
  options.shards = 2;

  std::vector<std::pair<Label, Bytes>> entries;
  Label label;
  label.fill(0x21);
  entries.emplace_back(label, Bytes(32, 0x05));
  Label label2;
  label2.fill(0x22);
  entries.emplace_back(label2, Bytes(32, 0x06));

  {
    EmmServer server(options);
    ASSERT_TRUE(server.Listen().ok());
    std::thread serve([&server] { EXPECT_TRUE(server.Serve().ok()); });
    EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    auto resp = client.Update(entries);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->entries, 2u);
    server.Shutdown();
    serve.join();
  }

  EmmServer restarted(options);
  ASSERT_TRUE(restarted.Listen().ok());
  EXPECT_EQ(restarted.recovery_stats().stores_recovered, 1u);
  EXPECT_EQ(restarted.recovery_stats().wal_records_applied, 1u);
  std::thread serve([&restarted] { EXPECT_TRUE(restarted.Serve().ok()); });
  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", restarted.port()).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->entries, 2u);
  restarted.Shutdown();
  serve.join();
}

/// An EmmServer serving on a background thread. Destruction is the crash
/// path: Shutdown without a drain, so only the per-request fsyncs survive.
class ServingServer {
 public:
  explicit ServingServer(const ServerOptions& options) : server_(options) {
    const Status listening = server_.Listen();
    EXPECT_TRUE(listening.ok()) << listening.ToString();
    if (listening.ok()) {
      thread_ = std::thread([this] { EXPECT_TRUE(server_.Serve().ok()); });
    }
  }

  ~ServingServer() {
    server_.Shutdown();
    if (thread_.joinable()) thread_.join();
  }

  ServingServer(const ServingServer&) = delete;
  ServingServer& operator=(const ServingServer&) = delete;

  EmmServer& server() { return server_; }

 private:
  EmmServer server_;
  std::thread thread_;
};

TEST(ServerRecoveryTest, LegacySetupAndSetupStoreInstallIdentically) {
  // The legacy Setup frame and SetupStore(kPrimaryStore, kEmm, blob, no
  // gate) run one install path: in both serving modes they leave
  // byte-identical store-0.snap files, and after an unclean restart both
  // recover the same entry count and answer every range like the owner.
  Rng rng(23);
  const Dataset data = GenerateUniform(/*n=*/300, /*domain_size=*/1 << 8, rng);
  ConstantScheme scheme(CoverTechnique::kBrc, /*rng_seed=*/5);
  scheme.SetShards(2);
  ASSERT_TRUE(scheme.Build(data).ok());
  const Bytes blob = scheme.SerializeIndex();
  const size_t entries = scheme.index().EntryCount();
  const std::vector<Range> ranges = {{0, 255}, {10, 99}, {128, 128}};
  std::vector<EmmClient::BatchQuery> batch;
  std::vector<std::vector<uint64_t>> expected;
  for (uint32_t i = 0; i < ranges.size(); ++i) {
    batch.push_back({i, scheme.Delegate(ranges[i])});
    Result<QueryResult> local = scheme.Query(ranges[i]);
    ASSERT_TRUE(local.ok());
    std::sort(local->ids.begin(), local->ids.end());
    expected.push_back(local->ids);
  }

  for (const int mmap : {0, 1}) {
    std::vector<Bytes> snapshots;
    for (const bool legacy : {true, false}) {
      const std::string where = std::string(legacy ? "Setup" : "SetupStore") +
                                (mmap ? ", mmap" : ", heap");
      TempDir dir;
      ServerOptions options;
      options.port = 0;
      options.data_dir = dir.path();
      options.mmap_stores = mmap;
      {
        ServingServer first(options);
        EmmClient client;
        ASSERT_TRUE(
            client.Connect("127.0.0.1", first.server().port()).ok());
        auto setup =
            legacy ? client.Setup(blob)
                   : client.SetupStore(
                         rsse::kPrimaryStore,
                         static_cast<uint8_t>(rsse::StoreKind::kEmm),
                         ConstByteSpan(blob.data(), blob.size()), {});
        ASSERT_TRUE(setup.ok()) << where << ": " << setup.status().ToString();
        EXPECT_EQ(setup->shards, 2u) << where;
        EXPECT_EQ(setup->entries, entries) << where;
      }
      auto snap = ReadFile(dir.path() + "/store-0.snap");
      ASSERT_TRUE(snap.ok()) << where;
      snapshots.push_back(std::move(snap).value());

      ServingServer restarted(options);
      EXPECT_EQ(restarted.server().recovery_stats().stores_recovered, 1u)
          << where;
      EmmClient client;
      ASSERT_TRUE(
          client.Connect("127.0.0.1", restarted.server().port()).ok());
      auto stats = client.Stats();
      ASSERT_TRUE(stats.ok()) << where << ": " << stats.status().ToString();
      EXPECT_EQ(stats->entries, entries) << where;
      EXPECT_EQ(stats->snapshot_format, mmap ? 2u : 1u) << where;
      auto outcome = client.SearchBatch(batch);
      ASSERT_TRUE(outcome.ok()) << where << ": "
                                << outcome.status().ToString();
      for (uint32_t i = 0; i < ranges.size(); ++i) {
        std::vector<uint64_t> ids = outcome->ids[i];
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(ids, expected[i]) << where << ", range " << i;
      }
    }
    // EXPECT_TRUE rather than EXPECT_EQ: a failure should not print
    // whole page-aligned snapshot images.
    EXPECT_TRUE(snapshots[0] == snapshots[1])
        << (mmap ? "mmap" : "heap") << ": " << snapshots[0].size() << " vs "
        << snapshots[1].size() << " bytes";
  }
}

TEST(ServerRecoveryTest, UndeserializableSnapshotIsQuarantined) {
  // A snapshot whose checksum holds but whose blob refuses to deserialize
  // must be set aside exactly like a checksum failure: left in place it
  // would re-fail and re-count on every boot.
  TempDir dir;
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*p)->PersistSnapshot(
                        0, 1, static_cast<uint8_t>(rsse::StoreKind::kEmm),
                        ConstByteSpan(Blob(100, 7)), {})
                    .ok());
    ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(30, 8))).ok());
  }
  ServerOptions options;
  options.data_dir = dir.path();
  {
    EmmServer server(options);
    ASSERT_TRUE(server.Listen().ok());
    EXPECT_EQ(server.recovery_stats().stores_recovered, 0u);
    EXPECT_EQ(server.recovery_stats().corrupt_snapshots_dropped, 1u);
  }
  const std::string snap = dir.path() + "/store-0.snap";
  EXPECT_EQ(access(snap.c_str(), F_OK), -1);
  EXPECT_NE(access((snap + ".corrupt").c_str(), F_OK), -1)
      << "the bad file is set aside for forensics, not deleted";
  auto wal = ReadFile(dir.path() + "/store-0.wal");
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->empty())
      << "the WAL applied on top of the lost base and must not replay";

  // The second boot starts clean instead of re-counting the same file.
  EmmServer second(options);
  ASSERT_TRUE(second.Listen().ok());
  EXPECT_EQ(second.recovery_stats().corrupt_snapshots_dropped, 0u);
}

}  // namespace
}  // namespace rsse::server
