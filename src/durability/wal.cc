#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "obs/metrics.h"
#include "util/crc32.h"

namespace mc3::durability {
namespace {

namespace fs = std::filesystem;

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

/// Encodes one framed record.
std::string EncodeRecord(uint64_t seq, const std::string& payload) {
  std::string frame;
  frame.reserve(kWalHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  PutU64(&frame, seq);
  frame += payload;
  return frame;
}

/// Parses "wal-<20 digits>.log" into the first sequence number.
bool ParseSegmentName(const std::string& name, uint64_t* first_seq) {
  if (name.size() != 4 + 20 + 4) return false;
  if (name.rfind("wal-", 0) != 0) return false;
  if (name.compare(name.size() - 4, 4, ".log") != 0) return false;
  uint64_t seq = 0;
  for (size_t i = 4; i < 4 + 20; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *first_seq = seq;
  return true;
}

std::string SegmentName(uint64_t first_seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(first_seq));
  return buf;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return Status::IOError("cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) bytes.append(buf, n);
  const bool bad = std::ferror(in) != 0;
  std::fclose(in);
  if (bad) return Status::IOError("read failed on " + path);
  return bytes;
}

/// Outcome of decoding one segment's bytes.
struct SegmentScan {
  std::vector<WalRecord> records;
  size_t valid_bytes = 0;  ///< prefix length ending after the last record
  bool torn_tail = false;
  std::string torn_detail;
};

/// Decodes `bytes` of segment `name`. A truncated or CRC-corrupt record
/// terminates the scan as a torn tail at that offset; only the caller knows
/// whether that is tolerable (last segment) or mid-history corruption.
Result<SegmentScan> ScanSegment(const std::string& name,
                                const std::string& bytes) {
  SegmentScan scan;
  if (bytes.size() < sizeof(kWalMagic)) {
    if (bytes.empty()) {
      // A crash can leave a zero-byte segment between creat and the magic
      // write; treat it as a torn (empty) tail.
      scan.torn_tail = true;
      scan.torn_detail = name + ": empty segment (no magic)";
      return scan;
    }
    scan.torn_tail = true;
    scan.torn_detail = name + ": truncated magic";
    return scan;
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IOError(name + ": bad segment magic");
  }
  size_t off = sizeof(kWalMagic);
  scan.valid_bytes = off;
  while (off < bytes.size()) {
    if (bytes.size() - off < kWalHeaderBytes) {
      scan.torn_tail = true;
      scan.torn_detail = name + ": truncated frame header at offset " +
                         std::to_string(off);
      break;
    }
    const uint32_t len = GetU32(bytes.data() + off);
    const uint32_t crc = GetU32(bytes.data() + off + 4);
    const uint64_t seq = GetU64(bytes.data() + off + 8);
    if (len > kWalMaxPayloadBytes) {
      scan.torn_tail = true;
      scan.torn_detail = name + ": implausible payload length " +
                         std::to_string(len) + " at offset " +
                         std::to_string(off);
      break;
    }
    if (bytes.size() - off - kWalHeaderBytes < len) {
      scan.torn_tail = true;
      scan.torn_detail =
          name + ": truncated payload at offset " + std::to_string(off);
      break;
    }
    std::string payload = bytes.substr(off + kWalHeaderBytes, len);
    if (Crc32(payload.data(), payload.size()) != crc) {
      scan.torn_tail = true;
      scan.torn_detail =
          name + ": CRC mismatch at offset " + std::to_string(off) +
          " (seq " + std::to_string(seq) + ")";
      break;
    }
    scan.records.push_back(WalRecord{seq, std::move(payload)});
    off += kWalHeaderBytes + len;
    scan.valid_bytes = off;
  }
  return scan;
}

/// Scans all segments of `dir`, enforcing the cross-segment contract:
/// sequence numbers strictly contiguous, torn tails only in the final
/// segment. A gap *at a segment boundary* whose left side ends at or below
/// `boundary_gap_floor` is tolerated — that layout arises legitimately when
/// a snapshot outlives its covering segments (WalWriter::EnsureSeqFloor);
/// the dropped range is covered by the snapshot. Readers pass the snapshot
/// seq; the writer (which cannot know it) passes UINT64_MAX.
struct DirScan {
  WalScan scan;
  std::vector<std::string> segments;  ///< sorted names
  size_t last_segment_valid_bytes = 0;
};

Result<DirScan> ScanDir(const std::string& dir, uint64_t boundary_gap_floor) {
  DirScan out;
  auto segments = ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  out.segments = std::move(*segments);
  uint64_t expected_seq = 0;  // 0 = not yet pinned
  for (size_t i = 0; i < out.segments.size(); ++i) {
    const std::string& name = out.segments[i];
    const bool last = i + 1 == out.segments.size();
    auto bytes = ReadFileBytes(dir + "/" + name);
    if (!bytes.ok()) return bytes.status();
    auto seg = ScanSegment(name, *bytes);
    if (!seg.ok()) return seg.status();
    if (seg->torn_tail && !last) {
      return Status::IOError("mid-history corruption, not a torn tail: " +
                             seg->torn_detail);
    }
    uint64_t name_seq = 0;
    ParseSegmentName(name, &name_seq);
    if (!seg->records.empty() && seg->records.front().seq != name_seq) {
      return Status::IOError(name + ": first record seq " +
                             std::to_string(seg->records.front().seq) +
                             " does not match the segment name");
    }
    bool at_boundary = true;
    for (WalRecord& rec : seg->records) {
      if (expected_seq != 0 && rec.seq != expected_seq) {
        const bool covered_gap = at_boundary && rec.seq > expected_seq &&
                                 expected_seq - 1 <= boundary_gap_floor;
        if (!covered_gap) {
          return Status::IOError(name + ": sequence gap (expected " +
                                 std::to_string(expected_seq) + ", found " +
                                 std::to_string(rec.seq) + ")");
        }
      }
      at_boundary = false;
      expected_seq = rec.seq + 1;
      out.scan.records.push_back(std::move(rec));
    }
    // An empty segment (created by a rotation whose history was later
    // dropped, or torn before any record) still pins the sequence floor:
    // its name is the next sequence to assign.
    if (seg->records.empty()) expected_seq = std::max(expected_seq, name_seq);
    if (last) {
      out.last_segment_valid_bytes = seg->valid_bytes;
      out.scan.torn_tail = seg->torn_tail;
      out.scan.torn_detail = seg->torn_detail;
    }
  }
  if (expected_seq > 0) out.scan.last_seq = expected_seq - 1;
  return out;
}

void NoteAppend(uint64_t bytes) {
  static obs::Counter& records = obs::MetricsRegistry::Global().GetCounter(
      "durability.wal_records_appended");
  static obs::Counter& appended = obs::MetricsRegistry::Global().GetCounter(
      "durability.wal_bytes_appended");
  records.Add();
  appended.Add(bytes);
}

void NoteSync(uint64_t bytes, uint64_t records) {
  static obs::Counter& syncs =
      obs::MetricsRegistry::Global().GetCounter("durability.wal_syncs");
  static obs::Counter& fsynced = obs::MetricsRegistry::Global().GetCounter(
      "durability.wal_bytes_fsynced");
  static obs::Histogram& batch = obs::MetricsRegistry::Global().GetHistogram(
      "durability.group_commit_records");
  syncs.Add();
  fsynced.Add(bytes);
  batch.Record(static_cast<double>(records));
}

}  // namespace

Result<std::vector<std::string>> ListWalSegments(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return std::vector<std::string>{};
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t first_seq = 0;
    const std::string name = entry.path().filename().string();
    if (ParseSegmentName(name, &first_seq)) found.emplace_back(first_seq, name);
  }
  if (ec) return Status::IOError("cannot list " + dir + ": " + ec.message());
  std::sort(found.begin(), found.end());
  std::vector<std::string> names;
  names.reserve(found.size());
  for (auto& [seq, name] : found) names.push_back(std::move(name));
  return names;
}

Result<WalScan> ReadWal(const std::string& dir, uint64_t after_seq) {
  auto scanned = ScanDir(dir, /*boundary_gap_floor=*/after_seq);
  if (!scanned.ok()) return scanned.status();
  WalScan scan = std::move(scanned->scan);
  if (after_seq > 0) {
    auto it = std::partition_point(
        scan.records.begin(), scan.records.end(),
        [after_seq](const WalRecord& r) { return r.seq <= after_seq; });
    scan.records.erase(scan.records.begin(), it);
  }
  return scan;
}

WalWriter::WalWriter(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& dir,
                                                   const WalOptions& options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  auto scanned = ScanDir(dir, /*boundary_gap_floor=*/UINT64_MAX);
  if (!scanned.ok()) return scanned.status();

  // mc3-lint: new-delete-ok(private ctor; owned by unique_ptr at birth)
  std::unique_ptr<WalWriter> writer(new WalWriter(dir, options));
  {
    // The committer thread does not exist yet; the (uncontended) lock is
    // for the thread-safety analysis of the guarded fields below.
    util::MutexLock lock(writer->mu_);
    writer->last_seq_ = scanned->scan.last_seq;
    writer->stats_.torn_tail_on_open = scanned->scan.torn_tail;
    if (!scanned->segments.empty()) {
      // Resume the last segment, truncating a torn tail so appends extend
      // the valid prefix.
      const std::string last_name = scanned->segments.back();
      const std::string path = dir + "/" + last_name;
      if (scanned->scan.torn_tail) {
        fs::resize_file(path, scanned->last_segment_valid_bytes, ec);
        if (ec) {
          return Status::IOError("cannot truncate torn tail of " + path +
                                 ": " + ec.message());
        }
      }
      // The truncation above can leave a zero-byte segment (torn before the
      // magic landed); reopening it via OpenSegment rewrites the magic.
      uint64_t name_seq = 0;
      ParseSegmentName(last_name, &name_seq);
      if (scanned->last_segment_valid_bytes < sizeof(kWalMagic)) {
        fs::remove(path, ec);
        MC3_RETURN_IF_ERROR(writer->OpenSegment(name_seq));
      } else {
        writer->fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
        if (writer->fd_ < 0) {
          return Status::IOError("cannot open " + path + " for append");
        }
        writer->segment_first_seq_ = name_seq;
        writer->segment_bytes_written_ = scanned->last_segment_valid_bytes;
      }
    } else {
      MC3_RETURN_IF_ERROR(writer->OpenSegment(writer->last_seq_ + 1));
    }
  }

  if (options.sync == WalOptions::SyncPolicy::kGrouped) {
    writer->committer_ = std::thread([w = writer.get()] { w->CommitterLoop(); });
  }
  return writer;
}

WalWriter::~WalWriter() {
  const Status closed = Close();
  (void)closed;  // a destructor cannot propagate it
}

Status WalWriter::OpenSegment(uint64_t first_seq) {
  const std::string path = dir_ + "/" + SegmentName(first_seq);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError("cannot create " + path);
  if (::write(fd, kWalMagic, sizeof(kWalMagic)) !=
      static_cast<ssize_t>(sizeof(kWalMagic))) {
    ::close(fd);
    return Status::IOError("cannot write magic to " + path);
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  segment_first_seq_ = first_seq;
  segment_bytes_written_ = sizeof(kWalMagic);
  return Status::OK();
}

Status WalWriter::WriteAndMaybeSync(const std::string& frames, bool sync) {
  size_t off = 0;
  while (off < frames.size()) {
    const ssize_t n = ::write(fd_, frames.data() + off, frames.size() - off);
    if (n < 0) return Status::IOError("WAL write failed in " + dir_);
    off += static_cast<size_t>(n);
  }
  if (sync && ::fsync(fd_) != 0) {
    return Status::IOError("WAL fsync failed in " + dir_);
  }
  return Status::OK();
}

Result<uint64_t> WalWriter::Append(std::string payload) {
  uint64_t seq = 0;
  uint64_t durable_now = 0;
  {
    util::MutexLock lock(mu_);
    if (closed_ || stopping_) return Status::Internal("WAL writer is closed");
    MC3_RETURN_IF_ERROR(committer_error_);
    seq = ++last_seq_;
    std::string frame = EncodeRecord(seq, payload);
    stats_.records_appended += 1;
    stats_.bytes_appended += frame.size();
    NoteAppend(frame.size());

    if (options_.sync == WalOptions::SyncPolicy::kGrouped) {
      pending_ += frame;
      pending_records_ += 1;
      pending_last_seq_ = seq;
      work_cv_.NotifyOne();
      return seq;
    }

    // Inline policies: the engine worker is the only appender, so writing
    // without dropping the lock is safe (and keeps seq order trivially).
    const bool sync = options_.sync == WalOptions::SyncPolicy::kImmediate;
    MC3_RETURN_IF_ERROR(WriteAndMaybeSync(frame, sync));
    segment_bytes_written_ += frame.size();
    if (sync) {
      durable_seq_ = seq;
      stats_.syncs += 1;
      stats_.bytes_fsynced += frame.size();
      stats_.group_commit_max = std::max<uint64_t>(stats_.group_commit_max, 1);
      NoteSync(frame.size(), 1);
      durable_now = seq;
    }
    if (options_.segment_bytes > 0 &&
        segment_bytes_written_ >= options_.segment_bytes) {
      MC3_RETURN_IF_ERROR(OpenSegment(seq + 1));
    }
  }
  // The durability hook runs outside mu_ (it may take subscriber locks).
  if (durable_now != 0 && options_.on_durable) options_.on_durable(durable_now);
  return seq;
}

void WalWriter::CommitterLoop() {
  util::UniqueLock lock(mu_);
  for (;;) {
    work_cv_.Wait(mu_, [this]() MC3_REQUIRES(mu_) {
      return pending_records_ > 0 || stopping_;
    });
    if (pending_records_ == 0 && stopping_) return;
    if (options_.group_window_ms > 0 && !stopping_) {
      // Linger briefly so concurrent appenders can join this group.
      const auto window = std::chrono::duration<double, std::milli>(
          options_.group_window_ms);
      (void)work_cv_.WaitFor(mu_, window,
                             [this]() MC3_REQUIRES(mu_) { return stopping_; });
    }
    std::string batch;
    batch.swap(pending_);
    const uint64_t records = pending_records_;
    const uint64_t batch_last_seq = pending_last_seq_;
    pending_records_ = 0;

    lock.Unlock();
    const Status wrote = WriteAndMaybeSync(batch, /*sync=*/true);
    lock.Lock();

    if (!wrote.ok()) {
      if (committer_error_.ok()) committer_error_ = wrote;
      durable_cv_.NotifyAll();
      // Keep draining the queue (discarding) so Close does not hang; every
      // subsequent Append fails with the sticky error.
      continue;
    }
    segment_bytes_written_ += batch.size();
    durable_seq_ = batch_last_seq;
    stats_.syncs += 1;
    stats_.bytes_fsynced += batch.size();
    stats_.group_commit_max = std::max(stats_.group_commit_max, records);
    NoteSync(batch.size(), records);
    if (options_.segment_bytes > 0 &&
        segment_bytes_written_ >= options_.segment_bytes &&
        pending_records_ == 0) {
      // Only rotate between batches: records appended during the fsync are
      // numbered past batch_last_seq and belong in the new segment.
      const Status rotated = OpenSegment(batch_last_seq + 1);
      if (!rotated.ok() && committer_error_.ok()) committer_error_ = rotated;
    }
    durable_cv_.NotifyAll();
    if (options_.on_durable) {
      // The durability hook runs outside mu_ (it may take subscriber locks).
      lock.Unlock();
      options_.on_durable(batch_last_seq);
      lock.Lock();
    }
  }
}

Status WalWriter::Sync() {
  util::MutexLock lock(mu_);
  if (options_.sync != WalOptions::SyncPolicy::kGrouped) {
    // kImmediate is durable already; kNone explicitly waives durability.
    return committer_error_;
  }
  const uint64_t target = last_seq_;
  durable_cv_.Wait(mu_, [this, target]() MC3_REQUIRES(mu_) {
    return durable_seq_ >= target || !committer_error_.ok();
  });
  return committer_error_;
}

Status WalWriter::Rotate(uint64_t snapshot_seq, bool keep_segments) {
  MC3_RETURN_IF_ERROR(Sync());
  util::MutexLock lock(mu_);
  MC3_RETURN_IF_ERROR(committer_error_);
  if (closed_) return Status::Internal("WAL writer is closed");
  // Start a fresh segment so every older segment holds only records
  // <= snapshot_seq and can be dropped wholesale.
  if (segment_bytes_written_ > sizeof(kWalMagic)) {
    MC3_RETURN_IF_ERROR(OpenSegment(last_seq_ + 1));
  }
  if (keep_segments) return Status::OK();
  auto segments = ListWalSegments(dir_);
  if (!segments.ok()) return segments.status();
  // A segment's records end just before the next segment's first sequence,
  // so segment i is fully covered by the snapshot iff segment i+1 starts at
  // or below snapshot_seq + 1. The final segment (the live one) is never
  // deleted.
  for (size_t i = 0; i + 1 < segments->size(); ++i) {
    uint64_t next_first = 0;
    ParseSegmentName((*segments)[i + 1], &next_first);
    if (next_first <= snapshot_seq + 1) {
      std::error_code ec;
      fs::remove(dir_ + "/" + (*segments)[i], ec);
      if (ec) {
        return Status::IOError("cannot remove " + (*segments)[i] + ": " +
                               ec.message());
      }
    }
  }
  return Status::OK();
}

Status WalWriter::EnsureSeqFloor(uint64_t floor) {
  util::MutexLock lock(mu_);
  if (closed_) return Status::Internal("WAL writer is closed");
  if (last_seq_ >= floor) return Status::OK();
  if (pending_records_ > 0) {
    return Status::Internal("EnsureSeqFloor with records in flight");
  }
  last_seq_ = floor;
  const uint64_t old_first_seq = segment_first_seq_;
  const bool old_empty = segment_bytes_written_ <= sizeof(kWalMagic);
  MC3_RETURN_IF_ERROR(OpenSegment(floor + 1));
  if (old_empty && old_first_seq != floor + 1) {
    // The abandoned segment held no records; leaving it behind would pin
    // the sequence floor *down* on the next scan. Drop it.
    std::error_code ec;
    fs::remove(dir_ + "/" + SegmentName(old_first_seq), ec);
    if (ec) {
      return Status::IOError("cannot remove empty segment " +
                             SegmentName(old_first_seq) + ": " + ec.message());
    }
  }
  return Status::OK();
}

WalWriterStats WalWriter::Stats() const {
  util::MutexLock lock(mu_);
  WalWriterStats stats = stats_;
  stats.last_seq = last_seq_;
  stats.durable_seq =
      options_.sync == WalOptions::SyncPolicy::kImmediate ? last_seq_
                                                          : durable_seq_;
  auto segments = ListWalSegments(dir_);
  stats.segments = segments.ok() ? segments->size() : 0;
  return stats;
}

Status WalWriter::Close() {
  {
    util::MutexLock lock(mu_);
    if (closed_) return committer_error_;
    stopping_ = true;
    work_cv_.NotifyAll();
  }
  if (committer_.joinable()) committer_.join();
  util::MutexLock lock(mu_);
  closed_ = true;
  if (fd_ >= 0) {
    if (options_.sync != WalOptions::SyncPolicy::kNone) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  return committer_error_;
}

}  // namespace mc3::durability
