#include "storage/sstable.h"

#include <algorithm>
#include <fstream>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/serialization.h"

namespace saga::storage {

namespace {
constexpr uint32_t kSstMagicV2 = 0x53535432u;  // "SST2"
constexpr size_t kFooterSizeV2 = 8 * 7 + 4 + 4;
constexpr uint8_t kTypeValue = 0;
}  // namespace

Status SSTableBuilder::Add(std::string_view key, std::string_view value) {
  if (num_entries_ > 0 && std::string_view(last_key_) >= key) {
    return Status::InvalidArgument("SSTable keys must be strictly increasing");
  }
  if (num_entries_ % kIndexInterval == 0) {
    index_.emplace_back(std::string(key), data_.size());
  }
  BinaryWriter w(&data_);
  w.PutU8(kTypeValue);
  w.PutString(key);
  w.PutString(value);
  keys_for_bloom_.emplace_back(key);
  last_key_.assign(key);
  ++num_entries_;
  return Status::OK();
}

Status SSTableBuilder::Finish(const std::string& path, size_t expected_keys) {
  BloomFilter bloom(std::max(expected_keys, keys_for_bloom_.size()),
                    kBloomBitsPerKey);
  for (const auto& k : keys_for_bloom_) bloom.Add(k);

  std::string file = std::move(data_);
  const uint64_t entries_len = file.size();

  // Per-block CRCs over the entry area: one block per sparse-index
  // entry, spanning to the next indexed offset (verified on read).
  std::vector<uint32_t> block_crcs;
  block_crcs.reserve(index_.size());
  for (size_t i = 0; i < index_.size(); ++i) {
    const uint64_t begin = index_[i].second;
    const uint64_t end =
        (i + 1 < index_.size()) ? index_[i + 1].second : entries_len;
    block_crcs.push_back(
        Crc32(std::string_view(file.data() + begin, end - begin)));
  }

  const uint64_t index_off = file.size();
  {
    BinaryWriter w(&file);
    for (const auto& [key, off] : index_) {
      w.PutString(key);
      w.PutVarint64(off);
    }
  }
  const uint64_t index_len = file.size() - index_off;
  const uint64_t bloom_off = file.size();
  const std::string bloom_bytes = bloom.Serialize();
  file.append(bloom_bytes);
  const uint64_t bloom_len = bloom_bytes.size();

  const uint64_t blockcrc_off = file.size();
  {
    BinaryWriter w(&file);
    w.PutVarint64(block_crcs.size());
    for (uint32_t crc : block_crcs) w.PutFixed32(crc);
  }
  const uint64_t blockcrc_len = file.size() - blockcrc_off;

  BinaryWriter w(&file);
  w.PutFixed64(index_off);
  w.PutFixed64(index_len);
  w.PutFixed64(bloom_off);
  w.PutFixed64(bloom_len);
  w.PutFixed64(blockcrc_off);
  w.PutFixed64(blockcrc_len);
  w.PutFixed64(num_entries_);
  // The v2 footer CRC covers everything before the footer (entries,
  // index, bloom, block-CRC table), so a flipped bit anywhere in the
  // metadata is caught at open.
  w.PutFixed32(Crc32(std::string_view(file.data(), file.size())));
  w.PutFixed32(kSstMagicV2);
  if (Faults().armed()) {
    // A bit flip here is committed to disk and only caught by the
    // footer CRC at Open time; a torn write or failure aborts before
    // the atomic rename below.
    const WriteFault f = Faults().InjectWrite("sst.build", &file);
    if (f.fail && !f.write_payload) {
      return Status::IOError("injected SSTable build failure: " + path);
    }
    if (f.fail) {
      // Torn build: the prefix reaches the temp file (exactly what a
      // crash mid-write leaves); the table is never renamed in.
      std::ofstream torn(path + ".tmp", std::ios::binary | std::ios::trunc);
      torn.write(file.data(), static_cast<std::streamsize>(file.size()));
      return Status::IOError("injected torn SSTable build: " + path);
    }
  }
  return WriteStringToFile(path, file, /*durable=*/true);
}

Result<std::shared_ptr<SSTableReader>> SSTableReader::Open(
    const std::string& path, ReadVerifyMode verify) {
  if (Faults().armed()) {
    SAGA_RETURN_IF_ERROR(Faults().InjectOp("sst.open"));
  }
  SAGA_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  auto reader = std::shared_ptr<SSTableReader>(
      new SSTableReader(path, std::move(data), BloomFilter::FromBytes("")));
  reader->verify_ = verify;
  SAGA_RETURN_IF_ERROR(reader->ParseFooterAndIndex());
  return reader;
}

Status SSTableReader::ParseFooterAndIndex() {
  if (data_.size() < 4) {
    return Status::Corruption("SSTable too small: " + path_);
  }
  uint32_t magic = 0;
  {
    BinaryReader m(std::string_view(data_).substr(data_.size() - 4));
    SAGA_RETURN_IF_ERROR(m.GetFixed32(&magic));
  }
  if (magic != kSstMagicV2) {
    return Status::Corruption("bad SSTable magic: " + path_);
  }
  if (data_.size() < kFooterSizeV2) {
    return Status::Corruption("SSTable too small: " + path_);
  }
  uint64_t index_off = 0;
  uint64_t index_len = 0;
  uint64_t bloom_off = 0;
  uint64_t bloom_len = 0;
  uint64_t blockcrc_off = 0;
  uint64_t blockcrc_len = 0;
  uint32_t crc = 0;
  BinaryReader r(std::string_view(data_).substr(data_.size() - kFooterSizeV2));
  SAGA_RETURN_IF_ERROR(r.GetFixed64(&index_off));
  SAGA_RETURN_IF_ERROR(r.GetFixed64(&index_len));
  SAGA_RETURN_IF_ERROR(r.GetFixed64(&bloom_off));
  SAGA_RETURN_IF_ERROR(r.GetFixed64(&bloom_len));
  SAGA_RETURN_IF_ERROR(r.GetFixed64(&blockcrc_off));
  SAGA_RETURN_IF_ERROR(r.GetFixed64(&blockcrc_len));
  SAGA_RETURN_IF_ERROR(r.GetFixed64(&num_entries_));
  SAGA_RETURN_IF_ERROR(r.GetFixed32(&crc));
  const uint64_t footer_start = data_.size() - kFooterSizeV2;
  if (index_off + index_len > footer_start ||
      bloom_off + bloom_len > footer_start ||
      blockcrc_off + blockcrc_len > footer_start) {
    return Status::Corruption("SSTable footer offsets out of range: " + path_);
  }
  // The CRC covers every byte before the crc field itself — entries,
  // index, bloom, block-CRC table AND the footer offsets.
  if (Crc32(std::string_view(data_.data(), data_.size() - 8)) != crc) {
    return Status::Corruption("SSTable data crc mismatch: " + path_);
  }

  entries_end_ = index_off;
  bloom_ = BloomFilter::FromBytes(
      std::string_view(data_.data() + bloom_off, bloom_len));
  BinaryReader idx(std::string_view(data_.data() + index_off, index_len));
  while (!idx.AtEnd()) {
    std::string key;
    uint64_t off = 0;
    SAGA_RETURN_IF_ERROR(idx.GetString(&key));
    SAGA_RETURN_IF_ERROR(idx.GetVarint64(&off));
    index_.emplace_back(std::move(key), off);
  }

  block_starts_.reserve(index_.size());
  for (const auto& [key, off] : index_) block_starts_.push_back(off);
  BinaryReader bc(std::string_view(data_.data() + blockcrc_off, blockcrc_len));
  uint64_t n = 0;
  SAGA_RETURN_IF_ERROR(bc.GetVarint64(&n));
  if (n != block_starts_.size()) {
    return Status::Corruption("SSTable block-crc count mismatch: " + path_);
  }
  block_crcs_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t block_crc = 0;
    SAGA_RETURN_IF_ERROR(bc.GetFixed32(&block_crc));
    block_crcs_.push_back(block_crc);
  }
  if (!block_starts_.empty()) {
    verified_ = std::make_unique<std::atomic<uint8_t>[]>(block_starts_.size());
    for (size_t i = 0; i < block_starts_.size(); ++i) {
      verified_[i].store(0, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

size_t SSTableReader::BlockIndexFor(uint64_t off) const {
  // Last block whose start <= off.
  auto it = std::upper_bound(block_starts_.begin(), block_starts_.end(), off);
  return static_cast<size_t>(it - block_starts_.begin()) - 1;
}

Status SSTableReader::VerifyBlock(size_t block) const {
  const uint64_t begin = block_starts_[block];
  const uint64_t end = (block + 1 < block_starts_.size())
                           ? block_starts_[block + 1]
                           : entries_end_;
  if (Faults().armed()) {
    // Read-side corruption injection mutates the in-memory copy —
    // exactly what bit rot between open and read looks like. The
    // const_cast is confined to the armed test path.
    char* bytes = const_cast<char*>(data_.data()) + begin;
    SAGA_RETURN_IF_ERROR(
        Faults().InjectRead("sstable.read_block", bytes, end - begin));
  }
  if (Crc32(std::string_view(data_.data() + begin, end - begin)) !=
      block_crcs_[block]) {
    SAGA_COUNTER("integrity.corruption.detected").Add();
    return Status::DataLoss("SSTable block " + std::to_string(block) +
                            " crc mismatch: " + path_);
  }
  verified_[block].store(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SSTableReader::VerifyBlockContaining(uint64_t off) const {
  if (block_starts_.empty()) return Status::OK();
  const size_t block = BlockIndexFor(off);
  if (verify_ == ReadVerifyMode::kFirstRead &&
      verified_[block].load(std::memory_order_relaxed) != 0) {
    return Status::OK();
  }
  return VerifyBlock(block);
}

Status SSTableReader::VerifyChecksums() const {
  for (size_t b = 0; b < block_starts_.size(); ++b) {
    SAGA_RETURN_IF_ERROR(VerifyBlock(b));
  }
  return Status::OK();
}

Status SSTableReader::DecodeEntry(uint64_t* off, Entry* out) const {
  BinaryReader r(std::string_view(data_.data() + *off, entries_end_ - *off));
  uint8_t type = 0;
  SAGA_RETURN_IF_ERROR(r.GetU8(&type));
  if (type != kTypeValue) {
    return Status::Corruption("unknown SSTable entry type " +
                              std::to_string(type) + " in " + path_);
  }
  SAGA_RETURN_IF_ERROR(r.GetString(&out->key));
  SAGA_RETURN_IF_ERROR(r.GetString(&out->value));
  *off += r.position();
  return Status::OK();
}

uint64_t SSTableReader::SeekOffset(std::string_view key) const {
  if (index_.empty()) return 0;
  // Last index entry with key <= target.
  auto it = std::upper_bound(
      index_.begin(), index_.end(), key,
      [](std::string_view k, const std::pair<std::string, uint64_t>& e) {
        return k < std::string_view(e.first);
      });
  if (it == index_.begin()) return 0;
  return std::prev(it)->second;
}

Result<std::optional<SSTableReader::Entry>> SSTableReader::GetChecked(
    std::string_view key) const {
  if (!bloom_.MayContain(key)) return std::optional<Entry>();
  uint64_t off = SeekOffset(key);
  Entry e;
  while (off < entries_end_) {
    SAGA_RETURN_IF_ERROR(VerifyBlockContaining(off));
    Status s = DecodeEntry(&off, &e);
    if (!s.ok()) {
      // The block passed its CRC yet an entry does not decode: the
      // table was built wrong, not rotted. Still never a silent miss.
      return Status::Corruption("undecodable entry in crc-clean block: " +
                                path_ + ": " + s.message());
    }
    if (e.key == key) return std::optional<Entry>(std::move(e));
    if (std::string_view(e.key) > key) return std::optional<Entry>();
  }
  return std::optional<Entry>();
}

Result<std::vector<SSTableReader::Entry>> SSTableReader::ScanPrefixChecked(
    std::string_view prefix) const {
  std::vector<Entry> out;
  uint64_t off = prefix.empty() ? 0 : SeekOffset(prefix);
  Entry e;
  while (off < entries_end_) {
    SAGA_RETURN_IF_ERROR(VerifyBlockContaining(off));
    Status s = DecodeEntry(&off, &e);
    if (!s.ok()) {
      return Status::Corruption("undecodable entry in crc-clean block: " +
                                path_ + ": " + s.message());
    }
    if (std::string_view(e.key) >= prefix) {
      if (e.key.compare(0, prefix.size(), prefix) != 0) {
        if (std::string_view(e.key) > prefix) break;
      } else {
        out.push_back(e);
      }
    }
  }
  return out;
}

Result<std::vector<SSTableReader::Entry>> SSTableReader::ScanAllChecked()
    const {
  std::vector<Entry> out;
  out.reserve(num_entries_);
  uint64_t off = 0;
  Entry e;
  while (off < entries_end_) {
    SAGA_RETURN_IF_ERROR(VerifyBlockContaining(off));
    Status s = DecodeEntry(&off, &e);
    if (!s.ok()) {
      return Status::Corruption("undecodable entry in crc-clean block: " +
                                path_ + ": " + s.message());
    }
    out.push_back(e);
  }
  return out;
}

}  // namespace saga::storage
