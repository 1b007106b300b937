#include "common/file_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/fault_injection.h"

namespace saga {

namespace fs = std::filesystem;

namespace {

Status FsyncPath(const std::string& path, int open_flags) {
  if (Faults().armed()) {
    // `file.fsync` models the device refusing the flush. Any injected
    // failure here maps to the fsync-gate below — a kNoSpace spec keeps
    // its storage origin so the governor's degraded-mode trip sees it.
    Status injected = Faults().InjectOp("file.fsync");
    if (!injected.ok()) {
      if (injected.IsStorageExhausted()) return injected;
      return Status::FsyncGate("injected fsync failure " + path + ": " +
                               injected.message());
    }
  }
  const int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) {
    return Status::IOError("open for fsync " + path + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    // Fsync-gate: after a failed fsync the dirty pages may already be
    // dropped, so this path (and this fd) must never be silently
    // retried — callers rebuild the file or quarantine it.
    return Status::FsyncGate("fsync " + path + ": " +
                             std::strerror(saved_errno));
  }
  return Status::OK();
}

Status SyncFile(const std::string& path) {
  return FsyncPath(path, O_RDONLY);
}

Status SyncDir(const std::string& path) {
  return FsyncPath(path, O_RDONLY | O_DIRECTORY);
}

/// Renames `from` to `to`, replacing `to` if present. Fault point:
/// `file.rename`.
Status RenameFile(const std::string& from, const std::string& to) {
  if (Faults().armed()) {
    SAGA_RETURN_IF_ERROR(Faults().InjectOp("file.rename"));
  }
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::IOError("rename " + from + " -> " + to + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  if (Faults().armed()) {
    SAGA_RETURN_IF_ERROR(Faults().InjectOp("file.read"));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open for read: " + path);
  }
  std::string data;
  in.seekg(0, std::ios::end);
  const std::streampos size = in.tellg();
  if (size < 0) return Status::IOError("cannot stat: " + path);
  data.resize(static_cast<size_t>(size));
  in.seekg(0);
  if (size > 0) in.read(data.data(), size);
  if (!in) return Status::IOError("short read: " + path);
  return data;
}

Status WriteStringToFile(const std::string& path, std::string_view data,
                         bool durable) {
  const std::string tmp = path + ".tmp";
  std::string_view payload = data;
  std::string mutated;
  bool fail_after_write = false;
  if (Faults().armed()) {
    mutated.assign(data);
    const WriteFault f = Faults().InjectWrite("file.write", &mutated);
    if (f.no_space) {
      return Status::StorageExhausted("injected ENOSPC: " + tmp);
    }
    if (f.fail && !f.write_payload) {
      return Status::IOError("injected write failure: " + tmp);
    }
    payload = mutated;
    fail_after_write = f.fail;
  }
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open for write: " + tmp);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out) return Status::IOError("short write: " + tmp);
  }
  if (fail_after_write) {
    // Torn write: the prefix reached the temp file, as after a real
    // crash; the rename never happens so `path` is untouched.
    return Status::IOError("injected torn write: " + tmp);
  }
  if (durable) {
    Status sync = SyncFile(tmp);
    if (!sync.ok()) {
      // The tmp file's durability is indeterminate after a failed
      // fsync; discard it so any later attempt rebuilds on a fresh fd
      // (fsync-gate: never re-fsync the same file image).
      (void)RemoveFileIfExists(tmp);
      return sync;
    }
  }
  return durable ? RenameFileDurable(tmp, path) : RenameFile(tmp, path);
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Result<uint64_t> FileSize(const std::string& path) {
  std::error_code ec;
  const uint64_t size = fs::file_size(path, ec);
  if (ec) return Status::IOError("file_size " + path + ": " + ec.message());
  return size;
}

Status CreateDirIfMissing(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IOError("create_directories " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  if (Faults().armed()) {
    SAGA_RETURN_IF_ERROR(Faults().InjectOp("file.remove"));
  }
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::IOError("remove " + path + ": " + ec.message());
  return Status::OK();
}

Status RenameFileDurable(const std::string& from, const std::string& to) {
  SAGA_RETURN_IF_ERROR(RenameFile(from, to));
  if (Faults().armed()) {
    // Crash window between the rename and the directory fsync: the
    // rename is in the page cache but not yet on the platter.
    SAGA_RETURN_IF_ERROR(Faults().InjectOp("file.dirsync"));
  }
  const std::string parent = fs::path(to).parent_path().string();
  if (!parent.empty()) SAGA_RETURN_IF_ERROR(SyncDir(parent));
  return Status::OK();
}

Status CopyFile(const std::string& from, const std::string& to,
                bool durable) {
  SAGA_ASSIGN_OR_RETURN(std::string data, ReadFileToString(from));
  return WriteStringToFile(to, data, durable);
}

Status HardLinkOrCopyFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::create_hard_link(from, to, ec);
  if (!ec) return Status::OK();
  return CopyFile(from, to, /*durable=*/true);
}

Status TruncateFile(const std::string& path, uint64_t size) {
  std::error_code ec;
  fs::resize_file(path, size, ec);
  if (ec) {
    return Status::IOError("truncate " + path + " to " +
                           std::to_string(size) + ": " + ec.message());
  }
  return Status::OK();
}

Status RemoveDirRecursively(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) {
    return Status::IOError("remove_all " + path + ": " + ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  std::vector<std::string> names;
  for (const auto& entry : it) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<std::string>> ListSubdirs(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  std::vector<std::string> names;
  for (const auto& entry : it) {
    if (entry.is_directory()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::string> MakeTempDir(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  const fs::path base = fs::temp_directory_path();
  for (int attempt = 0; attempt < 100; ++attempt) {
    const uint64_t id =
        counter.fetch_add(1) * 1000003ULL + static_cast<uint64_t>(attempt) +
        static_cast<uint64_t>(::getpid()) * 7919ULL;
    fs::path candidate = base / (prefix + "_" + std::to_string(id));
    std::error_code ec;
    if (fs::create_directory(candidate, ec) && !ec) {
      return candidate.string();
    }
  }
  return Status::IOError("could not create temp dir with prefix " + prefix);
}

std::string JoinPath(std::string_view dir, std::string_view name) {
  if (dir.empty()) return std::string(name);
  std::string out(dir);
  if (out.back() != '/') out.push_back('/');
  out.append(name);
  return out;
}

}  // namespace saga
