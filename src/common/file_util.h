#ifndef SAGA_COMMON_FILE_UTIL_H_
#define SAGA_COMMON_FILE_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace saga {

/// Reads an entire file into memory.
Result<std::string> ReadFileToString(const std::string& path);

/// Creates/truncates `path` and writes `data` atomically (write to a temp
/// file, then rename). With `durable` the temp file is fsync'd before the
/// rename and the parent directory after it, so the rename itself is
/// crash-safe. Fault points: `file.write` (payload), `file.rename`,
/// `file.dirsync` (crash between the rename and the directory fsync —
/// the rename may or may not survive power loss).
Status WriteStringToFile(const std::string& path, std::string_view data,
                         bool durable = false);

bool FileExists(const std::string& path);

Result<uint64_t> FileSize(const std::string& path);

Status CreateDirIfMissing(const std::string& path);

/// Removes a file; OK if it does not exist.
Status RemoveFileIfExists(const std::string& path);

/// Renames `from` to `to`, replacing `to` if present, then fsyncs `to`'s
/// parent directory, so the rename itself survives power loss (a plain
/// rename lives only in the dirty directory page until the next sync).
/// Fault points: `file.rename`, `file.dirsync` (between the two steps).
Status RenameFileDurable(const std::string& from, const std::string& to);

/// Copies `from` to `to` atomically (tmp + rename; durable when asked).
Status CopyFile(const std::string& from, const std::string& to,
                bool durable = false);

/// Hard-links `from` as `to` (same inode — free and instant for
/// immutable files); falls back to an atomic copy on filesystems or
/// paths where linking fails. `to` must not exist.
Status HardLinkOrCopyFile(const std::string& from, const std::string& to);

/// Lists directory names (sorted) directly inside `dir`.
Result<std::vector<std::string>> ListSubdirs(const std::string& dir);

/// Truncates `path` to exactly `size` bytes (used by WAL recovery to cut
/// a torn tail before appending new records behind it).
Status TruncateFile(const std::string& path, uint64_t size);

/// Recursively removes a directory tree; OK if it does not exist.
Status RemoveDirRecursively(const std::string& path);

/// Lists regular files (names only, sorted) directly inside `dir`.
Result<std::vector<std::string>> ListDir(const std::string& dir);

/// Creates a fresh unique directory under the system temp dir with the
/// given prefix. The caller owns cleanup.
Result<std::string> MakeTempDir(const std::string& prefix);

std::string JoinPath(std::string_view dir, std::string_view name);

}  // namespace saga

#endif  // SAGA_COMMON_FILE_UTIL_H_
