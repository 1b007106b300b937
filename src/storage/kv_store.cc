#include "storage/kv_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/serialization.h"
#include "common/trace.h"

namespace saga::storage {

namespace {

/// The one WAL record type: a put. Any other op byte is a format this
/// store never writes and replays as damage.
constexpr uint8_t kOpPut = 1;
/// Per-record WAL framing overhead: fixed32 crc + fixed32 len.
constexpr uint64_t kWalRecordHeaderBytes = 8;
constexpr char kSstPrefix[] = "sst_";
constexpr char kSstSuffix[] = ".sst";
constexpr char kWalSegPrefix[] = "wal_";
constexpr char kWalSegSuffix[] = ".log";
constexpr char kWalName[] = "wal.log";
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "saga-manifest-v1";
constexpr char kQuarantineSuffix[] = ".quarantined";

/// Strict `<prefix><digits><suffix>` parse; nullopt for anything else
/// (a lenient strtoull here once collided seq 0 with a real table).
std::optional<uint64_t> ParseSeq(std::string_view name,
                                 std::string_view prefix,
                                 std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (char c : name.substr(prefix.size(),
                            name.size() - prefix.size() - suffix.size())) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

std::optional<uint64_t> ParseSstSeq(std::string_view name) {
  return ParseSeq(name, kSstPrefix, kSstSuffix);
}

std::optional<uint64_t> ParseWalSegSeq(std::string_view name) {
  return ParseSeq(name, kWalSegPrefix, kWalSegSuffix);
}

/// The MANIFEST at `path`'s table names in commit order; an error when
/// it is absent or does not decode.
Result<std::vector<std::string>> ReadManifest(const std::string& path) {
  SAGA_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  return DecodeManifest(data);
}

/// LiveFiles over the listing `names` of `dir` and its MANIFEST's
/// tables (nullptr when it is absent or does not decode).
std::vector<LiveFile> ListLive(const std::string& dir,
                               const std::vector<std::string>& names,
                               const std::vector<std::string>* manifest) {
  // Sorted by kind in the listing's order, then by seq.
  std::set<std::tuple<LiveFileKind, uint64_t, std::string>> found;
  for (const std::string& name : names) {
    using enum LiveFileKind;
    if (auto seq = ParseSstSeq(name)) found.emplace(kTable, *seq, name);
    if (name == kManifestName) found.emplace(kManifest, 0, name);
    if (auto seq = ParseWalSegSeq(name)) found.emplace(kWalSegment, *seq, name);
    if (name == kWalName) found.emplace(kWal, 0, name);
  }
  std::vector<LiveFile> out;
  if (manifest != nullptr) {
    for (const std::string& t : *manifest) {
      if (FileExists(JoinPath(dir, t))) {
        out.push_back({t, LiveFileKind::kTable});
      }
    }
  }
  for (const auto& [kind, seq, name] : found) {
    // Without a MANIFEST that decodes, Recover loads every table.
    if (kind != LiveFileKind::kTable || manifest == nullptr) {
      out.push_back({name, kind});
    }
  }
  return out;
}

}  // namespace

Result<std::vector<std::string>> DecodeManifest(std::string_view data) {
  SAGA_ASSIGN_OR_RETURN(std::vector<std::string> tables,
                        DecodeTextFrame(data, kManifestHeader));
  for (const std::string& name : tables) {
    if (!ParseSstSeq(name).has_value()) {
      return Status::Corruption("MANIFEST names a non-table: " + name);
    }
  }
  return tables;
}

Result<std::vector<LiveFile>> LiveFiles(const std::string& dir) {
  SAGA_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  auto manifest = ReadManifest(JoinPath(dir, kManifestName));
  return ListLive(dir, names, manifest.ok() ? &*manifest : nullptr);
}

Status VerifyLiveFile(const std::string& path, LiveFileKind kind) {
  switch (kind) {
    case LiveFileKind::kTable: {
      SAGA_ASSIGN_OR_RETURN(std::shared_ptr<SSTableReader> reader,
                            SSTableReader::Open(path, ReadVerifyMode::kAlways));
      return reader->VerifyChecksums();
    }
    case LiveFileKind::kManifest:
      return ReadManifest(path).status();
    case LiveFileKind::kWalSegment:
    case LiveFileKind::kWal: {
      SAGA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWalRecordsDetailed(path));
      if (wal.clean) return Status::OK();
      return Status::Corruption("wal tail damaged: " + path + " (" +
                                std::to_string(wal.bytes_dropped) + " bytes)");
    }
  }
  return Status::OK();
}

Status VerifyRepairCopy(const std::string& copy, LiveFileKind kind,
                        const std::string& dir) {
  if (kind != LiveFileKind::kManifest) return VerifyLiveFile(copy, kind);
  SAGA_ASSIGN_OR_RETURN(std::vector<std::string> tables, ReadManifest(copy));
  const std::set<std::string> named(tables.begin(), tables.end());
  SAGA_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  for (const std::string& name : names) {
    if (ParseSstSeq(name) && named.count(name) == 0) {
      return Status::Corruption(copy + " leaves out table " + name);
    }
  }
  return Status::OK();
}

Status QuarantineFile(const std::string& path) {
  const std::string to = path + kQuarantineSuffix;
  (void)RemoveFileIfExists(to);
  // Durable rename: a quarantine that un-happens after a crash would
  // put a known-bad file back in the directory.
  return RenameFileDurable(path, to);
}

KvStore::KvStore(std::string dir, Options options)
    : dir_(std::move(dir)),
      options_(std::move(options)) {
  mem_ = std::make_shared<MemTable>();
  sv_ = std::make_shared<Superversion>(Superversion{mem_, {}, {}});
  if (options_.background_maintenance) {
    bg_pool_ = std::make_unique<ThreadPool>(1);
  }
}

KvStore::~KvStore() {
  shutting_down_.store(true, std::memory_order_release);
  // Drains any queued maintenance run and joins the thread before the
  // state it touches is destroyed.
  bg_pool_.reset();
}

Result<std::unique_ptr<KvStore>> KvStore::Open(const std::string& dir) {
  return Open(dir, Options());
}

Result<std::unique_ptr<KvStore>> KvStore::Open(const std::string& dir,
                                               Options options) {
  SAGA_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  auto store = std::unique_ptr<KvStore>(new KvStore(dir, std::move(options)));
  SAGA_RETURN_IF_ERROR(store->Recover());
  return store;
}

std::string KvStore::SstPath(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08llu%s", kSstPrefix,
                static_cast<unsigned long long>(seq), kSstSuffix);
  return JoinPath(dir_, buf);
}

std::string KvStore::WalPath() const { return JoinPath(dir_, kWalName); }

std::string KvStore::WalSegmentPath(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08llu%s", kWalSegPrefix,
                static_cast<unsigned long long>(seq), kWalSegSuffix);
  return JoinPath(dir_, buf);
}

std::string KvStore::ManifestPath() const {
  return JoinPath(dir_, kManifestName);
}

std::shared_ptr<const KvStore::Superversion> KvStore::CurrentSuperversion()
    const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return sv_;
}

void KvStore::PublishLocked(std::shared_ptr<const Superversion> sv) {
  sv_ = std::move(sv);
  SAGA_GAUGE("storage.kv.bg.imm_memtables")
      .Set(static_cast<double>(sv_->imm.size()));
  SAGA_GAUGE("storage.kv.bg.l0_tables")
      .Set(static_cast<double>(sv_->tables.size()));
}

Status KvStore::WriteManifest(
    const std::vector<std::shared_ptr<SSTableReader>>& tables) {
  std::vector<std::string> names;
  names.reserve(tables.size());
  for (const auto& sst : tables) {
    names.push_back(std::filesystem::path(sst->path()).filename());
  }
  const std::string payload = EncodeTextFrame(kManifestHeader, names);
  return retry_.Run(
      "kv.manifest",
      [&] { return WriteStringToFile(ManifestPath(), payload, true); });
}

void KvStore::QuarantineTable(const std::string& name) {
  const std::string path = JoinPath(dir_, name);
  Status s = QuarantineFile(path);
  if (!s.ok()) {
    SAGA_LOG(Warning) << "could not quarantine " << path << ": " << s;
  }
  SAGA_COUNTER("storage.kv.sst_quarantined").Add();
}

uint64_t KvStore::ReplayWal(const WalReadResult& wal, bool* stopped_early) {
  size_t replayed = 0;
  uint64_t keep_bytes = 0;  // on-disk length of the replayed prefix
  *stopped_early = !wal.clean;
  for (const auto& rec : wal.records) {
    BinaryReader r(rec);
    uint8_t op = 0;
    std::string key;
    std::string value;
    const bool decoded = r.GetU8(&op).ok() && op == kOpPut &&
                         r.GetString(&key).ok() && r.GetString(&value).ok();
    if (!decoded) {
      // Degrade to "stop replay at the bad record": ops before it are
      // kept, everything after is dropped and counted — the store
      // still opens. The caller truncates the log to keep_bytes so
      // future appends never land behind the bad record.
      *stopped_early = true;
      break;
    }
    mem_->Put(key, value);
    ++replayed;
    keep_bytes += kWalRecordHeaderBytes + rec.size();
  }
  recovery_.wal_records_replayed += replayed;
  recovery_.wal_records_dropped += wal.records.size() - replayed;
  uint64_t bytes_dropped = wal.bytes_dropped;
  for (size_t i = replayed; i < wal.records.size(); ++i) {
    bytes_dropped += kWalRecordHeaderBytes + wal.records[i].size();
  }
  recovery_.wal_bytes_dropped += bytes_dropped;
  if (replayed < wal.records.size() || bytes_dropped > 0) {
    SAGA_LOG(Warning) << "WAL replay in " << dir_ << " dropped "
                      << (wal.records.size() - replayed) << " records and "
                      << bytes_dropped << " trailing bytes";
  }
  return keep_bytes;
}

Status KvStore::Recover() {
  RecoveryStats& rs = recovery_;
  SAGA_ASSIGN_OR_RETURN(std::vector<std::string> files, ListDir(dir_));

  // The manifest is the committed table set; absent (fresh dir or
  // pre-manifest layout) we fall back to loading every conforming
  // table. A torn/corrupt manifest is treated as absent.
  std::optional<std::vector<std::string>> manifest;
  if (FileExists(ManifestPath())) {
    if (auto read = ReadManifest(ManifestPath()); read.ok()) {
      manifest = std::move(*read);
    } else {
      SAGA_LOG(Warning) << "corrupt MANIFEST in " << dir_ << " ("
                        << read.status() << "); falling back to directory scan";
    }
  }
  rs.manifest_found = manifest.has_value();

  // The tables to load and the WAL files to replay (sealed segments are
  // left by a crash while background maintenance was behind), as
  // LiveFiles lists them.
  std::vector<std::string> live;
  std::vector<LiveFile> wal_files;
  for (LiveFile& f :
       ListLive(dir_, files, manifest.has_value() ? &*manifest : nullptr)) {
    if (f.kind == LiveFileKind::kTable) live.push_back(std::move(f.name));
    if (IsWal(f.kind)) wal_files.push_back(std::move(f));
  }
  if (manifest.has_value()) {
    for (const auto& name : *manifest) {
      if (!FileExists(JoinPath(dir_, name))) {
        ++rs.missing_tables;
        SAGA_LOG(Error) << "manifest table missing on disk: " << name;
      }
    }
  }

  // Sweep the rest of the directory. seq numbers from every conforming
  // name (even quarantined ones) advance next_sst_seq_ so new tables
  // never collide with leftovers.
  const std::set<std::string> live_set(live.begin(), live.end());
  for (const auto& name : files) {
    if (name.ends_with(".tmp")) {
      // Uncommitted build artifact from a crash mid-write.
      if (RemoveFileIfExists(JoinPath(dir_, name)).ok()) {
        ++rs.tmp_files_removed;
      }
      continue;
    }
    if (auto wseq = ParseWalSegSeq(name)) {
      next_wal_seq_ = std::max(next_wal_seq_, *wseq + 1);
      continue;
    }
    const bool quarantined = name.ends_with(kQuarantineSuffix);
    const std::string_view base = std::string_view(name).substr(
        0, name.size() - (quarantined ? sizeof(kQuarantineSuffix) - 1 : 0));
    const auto seq = ParseSstSeq(base);
    if (seq.has_value()) next_sst_seq_ = std::max(next_sst_seq_, *seq + 1);
    if (quarantined || !base.starts_with(kSstPrefix)) continue;
    if (!seq.has_value()) {
      ++rs.malformed_names_skipped;
      SAGA_LOG(Warning) << "skipping non-conforming table name " << name;
    } else if (live_set.count(name) == 0) {
      // Orphan: written but never committed (crash between the table
      // rename and the manifest write, or a leftover compaction input).
      // Its contents are either still in the WAL or superseded, so
      // quarantining loses nothing.
      QuarantineTable(name);
      ++rs.orphans_quarantined;
    }
  }

  std::vector<std::shared_ptr<SSTableReader>> tables;
  for (const auto& name : live) {
    const std::string path = JoinPath(dir_, name);
    std::shared_ptr<SSTableReader> reader;
    Status s = retry_.Run(
        "sst.open",
        [&]() -> Status {
          auto r = SSTableReader::Open(path);
          if (!r.ok()) return r.status();
          reader = std::move(*r);
          return Status::OK();
        });
    if (!s.ok()) {
      SAGA_LOG(Warning) << "quarantining unreadable table " << path << ": "
                        << s;
      QuarantineTable(name);
      ++rs.sstables_quarantined;
      continue;
    }
    tables.push_back(std::move(reader));
    ++rs.sstables_loaded;
  }

  if (options_.use_wal) {
    // Replay the WAL files in LiveFiles order: sealed segments by seq,
    // then the active log. The stop-at-damage contract spans files: a
    // damaged record anywhere drops everything after it, later files
    // included. The damaged file is cut before the log reopens for
    // append; otherwise new records land behind the bad bytes and every
    // future replay stops short of them (silent loss of acked writes).
    bool damaged = false;
    for (const LiveFile& f : wal_files) {
      const std::string path = JoinPath(dir_, f.name);
      const bool segment = f.kind == LiveFileKind::kWalSegment;
      uint64_t size = 0;
      if (auto fs = FileSize(path); fs.ok()) size = *fs;
      if (damaged) {
        rs.wal_bytes_dropped += size;
        if (segment) {
          (void)RemoveFileIfExists(path);
        } else {
          SAGA_RETURN_IF_ERROR(TruncateFile(path, 0));
        }
        continue;
      }
      SAGA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWalRecordsDetailed(path));
      bool stopped = false;
      const uint64_t keep_bytes = ReplayWal(wal, &stopped);
      if (stopped) {
        damaged = true;
        size = keep_bytes;
        SAGA_RETURN_IF_ERROR(TruncateFile(path, keep_bytes));
      }
      if (segment) {
        wal_segments_.push_back(
            WalSegment{*ParseWalSegSeq(f.name), path, size});
        ++rs.wal_segments_replayed;
      }
    }
    SAGA_COUNTER("storage.kv.wal_records_dropped")
        .Add(static_cast<int64_t>(rs.wal_records_dropped));
    SAGA_COUNTER("storage.kv.wal_bytes_dropped")
        .Add(static_cast<int64_t>(rs.wal_bytes_dropped));
    wal_ = std::make_unique<WalWriter>(WalPath());
    SAGA_RETURN_IF_ERROR(wal_->Open());
  }

  // The replayed memtable covers every segment found on disk: its
  // first seal rotates the active log to a seq above them all, so the
  // flush that drains it deletes them too.
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    PublishLocked(std::make_shared<Superversion>(
        Superversion{mem_, {}, std::move(tables)}));
  }

  // Commit the healed state so the next open sees one source of truth.
  Status ms = WriteManifest(CurrentSuperversion()->tables);
  if (!ms.ok()) {
    SAGA_LOG(Warning) << "could not write MANIFEST after recovery: " << ms;
  }
  return Status::OK();
}

Status KvStore::LogPut(std::string_view key, std::string_view value) {
  if (!options_.use_wal) return Status::OK();
  std::string rec;
  BinaryWriter w(&rec);
  w.PutU8(kOpPut);
  w.PutString(key);
  w.PutString(value);
  const uint64_t bytes = kWalRecordHeaderBytes + rec.size();
  resource::DiskSpaceGovernor::Reservation res;
  if (options_.governor != nullptr) {
    auto r = options_.governor->Reserve(bytes);
    if (!r.ok()) return r.status();
    res = std::move(*r);
  }
  Status s = wal_->Append(rec);
  if (s.ok() && options_.sync_every_write) s = wal_->Sync();
  if (!s.ok()) {
    // The reservation auto-releases; an ENOSPC the accounting did not
    // predict (real or injected at wal.append / wal.sync / file.fsync)
    // still trips degraded mode.
    NoteWriteFailure(s);
    return s;
  }
  res.Commit(bytes);
  return Status::OK();
}

Status KvStore::CheckWritable() {
  if (options_.governor != nullptr && options_.governor->degraded()) {
    SAGA_COUNTER("storage.kv.write_rejected").Add();
    return Status::StorageExhausted(
        "store is read-only degraded (disk budget exhausted): " + dir_);
  }
  return Status::OK();
}

bool KvStore::SealGateExceeded(size_t* imm_count) {
  size_t imm = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    imm = sv_->imm.size();
  }
  if (imm_count != nullptr) *imm_count = imm;
  return static_cast<int>(imm) >= options_.max_immutable_memtables;
}

Status KvStore::CheckWriteStall() {
  if (!options_.background_maintenance) return Status::OK();
  // Only a full active memtable can stall: Put leaves it full
  // (instead of sealing) exactly when the gate below is exceeded.
  if (mem_->ApproximateBytes() < options_.memtable_max_bytes) {
    return Status::OK();
  }
  size_t imm_count = 0;
  if (!SealGateExceeded(&imm_count)) return Status::OK();
  // Shed before the WAL append so a stalled write is never partially
  // applied, and make sure the drain that unblocks us is in flight.
  ScheduleMaintenance();
  SAGA_COUNTER("storage.kv.bg.stall_rejects").Add();
  return Status::ResourceExhausted("kv write stall: " +
                                   std::to_string(imm_count) +
                                   " sealed memtables awaiting flush in " +
                                   dir_);
}

Status KvStore::EnsureWalUsable() {
  if (!options_.use_wal) return Status::OK();
  if (wal_->poisoned()) {
    // Fsync-gate recovery: the poisoned fd is never re-fsynced. Every
    // record whose Sync succeeded is in the memtable, so sealing and
    // draining it (table + manifest commit + covered-segment deletion)
    // rebuilds the log without losing anything acknowledged. The drain
    // runs inline even in background mode: new writes must not be
    // acked against a log we cannot fsync.
    SAGA_COUNTER("storage.kv.wal_rebuilds").Add();
    SAGA_LOG(Warning) << "rebuilding fsync-poisoned WAL in " << dir_;
    if (!mem_->empty()) {
      SAGA_RETURN_IF_ERROR(SealActiveMemtableLocked());
      return DrainMaintenance(/*background=*/false);
    }
    // Nothing acked is in the active log (acked records live in sealed
    // segments or tables), so truncate-in-place is safe.
    return wal_->Reset();
  }
  if (!wal_->is_open()) {
    // A failed rotation left the writer closed; rebuild in place.
    return wal_->Reset();
  }
  return Status::OK();
}

void KvStore::NoteWriteFailure(const Status& s) {
  if (options_.governor != nullptr && s.IsStorageExhausted()) {
    options_.governor->NoteExhausted(s.message());
  }
}

Status KvStore::Put(std::string_view key, std::string_view value) {
  obs::ScopedLatency timer(SAGA_LATENCY("storage.kv.put_ns"));
  if (key.empty()) return Status::InvalidArgument("empty key");
  std::lock_guard<std::mutex> wl(write_mu_);
  SAGA_RETURN_IF_ERROR(CheckWritable());
  SAGA_RETURN_IF_ERROR(EnsureWalUsable());
  SAGA_RETURN_IF_ERROR(CheckWriteStall());
  Status logged = LogPut(key, value);
  if (!logged.ok()) {
    if (logged.IsStorageExhausted()) {
      SAGA_COUNTER("storage.kv.write_rejected").Add();
    }
    return logged;
  }
  {
    // Exclusive only for the in-memory apply — never across IO.
    std::unique_lock<std::shared_mutex> ml(mem_mu_);
    mem_->Put(key, value);
  }
  SAGA_COUNTER("storage.kv.write_ok").Add();
  if (mem_->ApproximateBytes() < options_.memtable_max_bytes) {
    return Status::OK();
  }
  if (options_.background_maintenance) {
    // Gated seal: when maintenance is behind, leave the memtable full
    // and active (this write was acked; the NEXT one sheds via
    // CheckWriteStall) so the sealed backlog stays bounded.
    if (SealGateExceeded(nullptr)) {
      ScheduleMaintenance();
      return Status::OK();
    }
    SAGA_RETURN_IF_ERROR(SealActiveMemtableLocked());
    ScheduleMaintenance();
    return Status::OK();
  }
  SAGA_RETURN_IF_ERROR(SealActiveMemtableLocked());
  return DrainMaintenance(/*background=*/false);
}

Status KvStore::SealActiveMemtableLocked() {
  if (mem_->empty()) return Status::OK();
  WalSegment seg;
  if (options_.use_wal) {
    // Always consume a seq, success or not: a half-done rotation (the
    // rename landed, the seal failed later) leaves an orphan segment
    // that recovery replays and a retried seal must never clobber.
    seg.seq = next_wal_seq_++;
    seg.path = WalSegmentPath(seg.seq);
    seg.bytes = wal_->bytes_written();
    SAGA_RETURN_IF_ERROR(wal_->RotateTo(seg.path));
    SAGA_COUNTER("storage.kv.bg.wal_rotations").Add();
  }
  auto fresh = std::make_shared<MemTable>();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto nsv = std::make_shared<Superversion>(*sv_);
    nsv->imm.push_back(ImmMemtable{mem_, seg.seq});
    nsv->mem = fresh;
    if (options_.use_wal) wal_segments_.push_back(seg);
    mem_ = fresh;
    PublishLocked(std::move(nsv));
  }
  return Status::OK();
}

Result<std::string> KvStore::Get(std::string_view key) {
  return Get(key, RequestContext());
}

Result<std::string> KvStore::Get(std::string_view key,
                                 const RequestContext& ctx) {
  auto stage = SAGA_STAGE("storage.kv.get");
  SAGA_RETURN_IF_ERROR(ctx.Check("storage.kv.get"));
  if (Faults().armed()) {
    // `kv.read` models a slow or failing storage device / replica;
    // the deadline re-check right after surfaces an injected stall
    // as DeadlineExceeded exactly like a real one.
    Status injected = Faults().InjectOp("kv.read");
    if (!injected.ok()) {
      obs::MarkSpanError(injected);
      return injected;
    }
    SAGA_RETURN_IF_ERROR(ctx.Check("storage.kv.get"));
  }
  // Snapshot once, then probe newest-to-oldest. Only the active
  // memtable needs a lock (writers mutate it); the immutable
  // memtables and tables are frozen by construction.
  const std::shared_ptr<const Superversion> sv = CurrentSuperversion();
  std::optional<std::string> value;
  {
    std::shared_lock<std::shared_mutex> ml(mem_mu_);
    value = sv->mem->Get(key);
  }
  if (!value.has_value()) {
    for (auto it = sv->imm.rbegin(); it != sv->imm.rend(); ++it) {
      value = it->mem->Get(key);
      if (value.has_value()) break;
    }
  }
  if (value.has_value()) return std::move(*value);
  for (auto it = sv->tables.rbegin(); it != sv->tables.rend(); ++it) {
    SAGA_RETURN_IF_ERROR(ctx.Check("storage.kv.probe"));
    if ((*it)->DefinitelyMissing(key)) {
      SAGA_COUNTER("storage.kv.bloom_skips").Add();
      continue;
    }
    SAGA_COUNTER("storage.kv.sstable_probes").Add();
    // Checked probe: a CRC-failing block surfaces as kDataLoss here
    // instead of reading as a miss and falling through to an older
    // (stale) version of the key in a deeper table.
    Result<std::optional<SSTableReader::Entry>> probe =
        (*it)->GetChecked(key);
    if (!probe.ok()) {
      obs::MarkSpanError(probe.status());
      return probe.status();
    }
    if (probe->has_value()) return std::move((*probe)->value);
  }
  return Status::NotFound(std::string(key));
}

Result<std::vector<std::pair<std::string, std::string>>> KvStore::ScanPrefix(
    std::string_view prefix) {
  // Newest-wins merge across one superversion snapshot: tables oldest
  // first, then sealed memtables, then the active memtable.
  const std::shared_ptr<const Superversion> sv = CurrentSuperversion();
  std::map<std::string, std::string> merged;
  for (const auto& sst : sv->tables) {  // oldest first; later inserts win
    SAGA_ASSIGN_OR_RETURN(std::vector<SSTableReader::Entry> entries,
                          sst->ScanPrefixChecked(prefix));
    for (auto& e : entries) merged[std::move(e.key)] = std::move(e.value);
  }
  for (const auto& imm : sv->imm) {  // oldest first
    for (const auto& [key, value] : imm.mem->entries()) {
      if (key.compare(0, prefix.size(), prefix) == 0) merged[key] = value;
    }
  }
  {
    std::shared_lock<std::shared_mutex> ml(mem_mu_);
    for (const auto& [key, value] : sv->mem->entries()) {
      if (key.compare(0, prefix.size(), prefix) == 0) merged[key] = value;
    }
  }
  return std::vector<std::pair<std::string, std::string>>(
      std::make_move_iterator(merged.begin()),
      std::make_move_iterator(merged.end()));
}

Result<std::shared_ptr<SSTableReader>> KvStore::BuildTableWithRetry(
    const std::string& path,
    const std::map<std::string, std::string, std::less<>>& rows) {
  std::shared_ptr<SSTableReader> reader;
  // Corruption of a table we just built (bit rot between write and
  // verify) is healed by rebuilding, so it is retryable here — unlike
  // at recovery time.
  Status s = retry_.Run(
      "sst.build",
      [&]() -> Status {
        SSTableBuilder builder;
        for (const auto& [key, value] : rows) {
          SAGA_RETURN_IF_ERROR(builder.Add(key, value));
        }
        SAGA_RETURN_IF_ERROR(builder.Finish(path, rows.size()));
        auto r = SSTableReader::Open(path);
        if (!r.ok()) {
          (void)RemoveFileIfExists(path);
          return r.status();
        }
        reader = std::move(*r);
        return Status::OK();
      },
      [](const Status& st) {
        return RetryPolicy::IsRetryable(st) || st.IsCorruption();
      });
  if (!s.ok()) return s;
  return reader;
}

Status KvStore::Flush() {
  {
    std::lock_guard<std::mutex> wl(write_mu_);
    SAGA_RETURN_IF_ERROR(SealActiveMemtableLocked());
  }
  return DrainMaintenance(/*background=*/false);
}

Status KvStore::DrainMaintenance(bool background) {
  std::lock_guard<std::mutex> ml(maint_mu_);
  for (;;) {
    bool pending = false;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      pending = !sv_->imm.empty();
    }
    if (!pending) break;
    SAGA_RETURN_IF_ERROR(FlushOneImmLocked());
    if (background) SAGA_COUNTER("storage.kv.bg.flushes").Add();
  }
  if (options_.auto_compact_trigger > 0) {
    size_t tables = 0;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      tables = sv_->tables.size();
    }
    if (static_cast<int>(tables) > options_.auto_compact_trigger) {
      SAGA_RETURN_IF_ERROR(CompactAllLocked());
      if (background) SAGA_COUNTER("storage.kv.bg.compactions").Add();
    }
  }
  return Status::OK();
}

Status KvStore::FlushOneImmLocked() {
  ImmMemtable target;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (sv_->imm.empty()) return Status::OK();
    target = sv_->imm.front();  // flush strictly oldest-first
  }
  auto stage = SAGA_STAGE("storage.kv.flush");
  if (Faults().armed()) {
    // `sstable.flush` models the flush's table write hitting the
    // device's ENOSPC (or failing outright) before any bytes land.
    Status injected = Faults().InjectOp("sstable.flush");
    if (!injected.ok()) {
      NoteWriteFailure(injected);
      return injected;
    }
  }
  // Reclaim-class reservation: a flush *enables* reclaim (the covering
  // WAL segments are deleted right after the manifest commit), so it
  // may use the emergency floor — refusing it would wedge a full store
  // with a fat memtable it can never drain. Slack covers
  // index/bloom/footer overhead beyond the raw entry bytes.
  resource::DiskSpaceGovernor::Reservation res;
  if (options_.governor != nullptr) {
    const uint64_t mem_bytes = target.mem->ApproximateBytes();
    const uint64_t estimate = mem_bytes + mem_bytes / 8 + 4096;
    auto r = options_.governor->Reserve(
        estimate, resource::DiskSpaceGovernor::ReservationClass::kReclaim);
    if (!r.ok()) {
      NoteWriteFailure(r.status());
      return r.status();
    }
    res = std::move(*r);
  }
  uint64_t sst_seq = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    sst_seq = next_sst_seq_++;
  }
  const std::string path = SstPath(sst_seq);
  auto built = BuildTableWithRetry(path, target.mem->entries());
  if (!built.ok()) {
    NoteWriteFailure(built.status());
    return built.status();
  }
  res.Commit((*built)->file_bytes());
  std::vector<std::shared_ptr<SSTableReader>> new_tables;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    new_tables = sv_->tables;
  }
  new_tables.push_back(*built);
  Status ms = WriteManifest(new_tables);
  if (!ms.ok()) {
    // The table is on disk but not committed; undo and leave the
    // sealed memtable + its WAL segments as the source of truth.
    (void)RemoveFileIfExists(path);
    return ms;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto nsv = std::make_shared<Superversion>(*sv_);
    nsv->imm.erase(nsv->imm.begin());
    nsv->tables = std::move(new_tables);
    PublishLocked(std::move(nsv));
  }
  // Only after the manifest commit is it safe to drop the covering WAL
  // segments — strictly oldest-first, stopping at the first failure:
  // replay must never find segment N missing while N-1 remains, or an
  // older segment's records would shadow newer flushed data after a
  // crash. A failed removal is retried by the next flush.
  uint64_t wal_freed = 0;
  if (options_.use_wal) {
    for (;;) {
      WalSegment seg;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        if (wal_segments_.empty() ||
            wal_segments_.front().seq > target.wal_seq) {
          break;
        }
        seg = wal_segments_.front();
      }
      uint64_t size = 0;
      if (auto fs = FileSize(seg.path); fs.ok()) size = *fs;
      if (!RemoveFileIfExists(seg.path).ok()) break;
      wal_freed += size;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        wal_segments_.erase(wal_segments_.begin());
      }
    }
  }
  if (options_.governor != nullptr && wal_freed > 0) {
    options_.governor->OnBytesFreed(wal_freed);
  }
  return Status::OK();
}

Status KvStore::CompactAll() {
  std::lock_guard<std::mutex> ml(maint_mu_);
  return CompactAllLocked();
}

Status KvStore::CompactAllLocked() {
  obs::ScopedSpan span("storage.kv.compact");
  // Retry removals a previous compaction could not complete.
  SAGA_ASSIGN_OR_RETURN(uint64_t gc_freed, DropObsoleteFiles());
  if (options_.governor != nullptr && gc_freed > 0) {
    options_.governor->OnBytesFreed(gc_freed);
  }

  // maint_mu_ freezes the table set (flushes append under it too);
  // newer data keeps landing in memtables, which shadow the output.
  std::vector<std::shared_ptr<SSTableReader>> inputs;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    inputs = sv_->tables;
  }
  if (inputs.size() <= 1) return Status::OK();
  if (Faults().armed()) {
    // `compaction.write` models the merged output table hitting ENOSPC
    // (or a plain failure) before the merge writes its first byte.
    Status injected = Faults().InjectOp("compaction.write");
    if (!injected.ok()) {
      NoteWriteFailure(injected);
      return injected;
    }
  }
  // Reclaim-class reservation sized at the sum of the inputs (an upper
  // bound on the merged output): compaction may dip into the emergency
  // floor because it is the mechanism that frees space.
  resource::DiskSpaceGovernor::Reservation res;
  if (options_.governor != nullptr) {
    uint64_t estimate = 4096;
    for (const auto& sst : inputs) estimate += sst->file_bytes();
    auto r = options_.governor->Reserve(
        estimate, resource::DiskSpaceGovernor::ReservationClass::kReclaim);
    if (!r.ok()) {
      NoteWriteFailure(r.status());
      return r.status();
    }
    res = std::move(*r);
  }
  // The merged table replaces all older history (memtables hold
  // anything newer and shadow it), and the manifest commit below makes
  // that atomic even across a crash (leftover inputs are quarantined as
  // orphans, never read alongside the merged output).
  std::map<std::string, std::string, std::less<>> merged;
  for (const auto& sst : inputs) {  // oldest first
    // Checked scan: compaction rewrites history, so folding a rotted
    // block in here would launder corruption into a fresh CRC-clean
    // table. Abort instead and leave the inputs for repair.
    SAGA_ASSIGN_OR_RETURN(std::vector<SSTableReader::Entry> entries,
                          sst->ScanAllChecked());
    for (auto& e : entries) merged[std::move(e.key)] = std::move(e.value);
  }
  uint64_t sst_seq = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    sst_seq = next_sst_seq_++;
  }
  const std::string path = SstPath(sst_seq);
  auto built = BuildTableWithRetry(path, merged);
  if (!built.ok()) {
    NoteWriteFailure(built.status());
    return built.status();
  }
  std::shared_ptr<SSTableReader> reader = std::move(*built);
  res.Commit(reader->file_bytes());

  std::vector<std::pair<std::string, uint64_t>> old_paths;
  old_paths.reserve(inputs.size());
  for (const auto& sst : inputs) {
    old_paths.emplace_back(sst->path(), sst->file_bytes());
  }

  std::vector<std::shared_ptr<SSTableReader>> new_tables;
  new_tables.push_back(std::move(reader));
  Status ms = WriteManifest(new_tables);
  if (!ms.ok()) {
    // Not committed: the old table set stays current (it was never
    // unpublished); the merged file becomes an orphan for the next
    // recovery to quarantine.
    (void)RemoveFileIfExists(path);
    return ms;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto nsv = std::make_shared<Superversion>(*sv_);
    nsv->tables = std::move(new_tables);
    PublishLocked(std::move(nsv));
  }
  uint64_t bytes_freed = 0;
  for (const auto& [p, size] : old_paths) {
    if (RemoveFileIfExists(p).ok()) {
      bytes_freed += size;
    } else {
      // Non-fatal: the compaction is committed; the leftover is
      // unreferenced and will be collected by a later CompactAll (or
      // quarantined at the next open). Live readers holding the old
      // superversion are unaffected either way — tables are fully
      // resident in memory once opened.
      std::lock_guard<std::mutex> lock(state_mu_);
      pending_gc_.push_back(p);
    }
  }
  if (options_.governor != nullptr && bytes_freed > 0) {
    options_.governor->OnBytesFreed(bytes_freed);
  }
  return Status::OK();
}

void KvStore::ScheduleMaintenance() {
  if (bg_pool_ == nullptr) return;
  if (shutting_down_.load(std::memory_order_acquire)) return;
  // Coalesce: one queued run is enough — it drains everything sealed
  // at the time it executes, and a seal racing past it re-schedules.
  if (bg_scheduled_.exchange(true, std::memory_order_acq_rel)) return;
  bg_pool_->Submit([this] { RunBackgroundMaintenance(); });
}

void KvStore::RunBackgroundMaintenance() {
  bg_scheduled_.store(false, std::memory_order_release);
  if (shutting_down_.load(std::memory_order_acquire)) return;
  obs::ScopedLatency timer(SAGA_LATENCY("storage.kv.bg.run_ns"));
  Status s = DrainMaintenance(/*background=*/true);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    bg_error_ = s;
  }
  if (!s.ok()) {
    SAGA_COUNTER("storage.kv.bg.failures").Add();
    SAGA_LOG(Warning) << "background maintenance failed in " << dir_ << ": "
                      << s;
  }
}

void KvStore::WaitForMaintenance() {
  if (bg_pool_ == nullptr) return;
  for (;;) {
    bg_pool_->Wait();
    if (!bg_scheduled_.load(std::memory_order_acquire)) return;
    // A submit was in flight between the flag set and the queue push;
    // yield and re-wait.
    std::this_thread::yield();
  }
}

Status KvStore::background_error() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return bg_error_;
}

size_t KvStore::num_sstables() const {
  return CurrentSuperversion()->tables.size();
}

Result<uint64_t> KvStore::DropObsoleteFiles() {
  std::vector<std::string> pending;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    pending = std::move(pending_gc_);
    pending_gc_.clear();
  }
  std::vector<std::string> still_pending;
  uint64_t freed = 0;
  for (const auto& p : pending) {
    if (!FileExists(p)) continue;
    uint64_t size = 0;
    if (auto fs = FileSize(p); fs.ok()) size = *fs;
    if (RemoveFileIfExists(p).ok()) {
      freed += size;
    } else {
      still_pending.push_back(p);
    }
  }
  if (!still_pending.empty()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (auto& p : still_pending) pending_gc_.push_back(std::move(p));
  }
  return freed;
}

Status KvStore::VerifyTables() const {
  const std::shared_ptr<const Superversion> sv = CurrentSuperversion();
  for (const auto& sst : sv->tables) {
    SAGA_RETURN_IF_ERROR(sst->VerifyChecksums());
  }
  return Status::OK();
}

}  // namespace saga::storage
