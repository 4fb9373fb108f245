#include "core/checkpoint.hpp"

#include <fcntl.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/bytes.hpp"
#include "util/checksum.hpp"

namespace uncharted::core {

namespace {

namespace fi = faultinject;

Status sys_error(const char* code, const std::string& what, int err) {
  return Error{code, what + ": " + std::strerror(err)};
}

/// Writes `bytes` to a fresh `path` and makes it durable (write + fsync +
/// close). Any failure removes the partial file so a torn tmp can never
/// be mistaken for a complete one.
Status write_durable(fi::SysOps& sys, const std::string& path,
                     std::span<const std::uint8_t> bytes) {
  const int fd =
      sys.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return sys_error("checkpoint-open", "cannot open " + path, errno);
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const fi::IoResult r =
        fi::retry_write(sys, fd, bytes.data() + off, bytes.size() - off);
    if (r.status != fi::IoStatus::kOk) {
      const int err = r.status == fi::IoStatus::kError ? r.err : EAGAIN;
      (void)sys.close(fd);
      std::error_code ec;
      std::filesystem::remove(path, ec);
      return sys_error("checkpoint-write", "short write to " + path, err);
    }
    off += r.bytes;
  }
  // fsync BEFORE rename: rename is durable only for file content that has
  // already reached the disk; otherwise a crash can expose a zero-length
  // or torn file under the durable name.
  if (sys.fsync(fd) < 0) {
    const int err = errno;
    (void)sys.close(fd);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return sys_error("checkpoint-fsync", "fsync " + path, err);
  }
  (void)sys.close(fd);
  return Status::Ok();
}

/// Makes a completed rename durable by fsyncing the parent directory. A
/// directory that cannot be opened (exotic filesystems) is tolerated; a
/// directory that opens but will not sync is a real error.
Status sync_parent_dir(fi::SysOps& sys, const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir.push_back('.');
  const int dfd = sys.open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
  if (dfd < 0) return Status::Ok();
  if (sys.fsync(dfd) < 0) {
    const int err = errno;
    (void)sys.close(dfd);
    return sys_error("checkpoint-dirsync", "fsync dir " + dir, err);
  }
  (void)sys.close(dfd);
  return Status::Ok();
}

}  // namespace

Status write_checkpoint_file(const std::string& path,
                             std::span<const std::uint8_t> payload,
                             faultinject::SysOps* sys_override) {
  fi::SysOps& sys =
      sys_override != nullptr ? *sys_override : fi::real_sys_ops();
  ByteWriter w;
  w.u32le(kCheckpointMagic);
  w.u32le(kCheckpointVersion);
  w.u64le(payload.size());
  w.u32le(crc32(payload));
  w.bytes(payload);

  const std::string tmp = path + ".tmp";
  if (auto st = write_durable(sys, tmp, w.view()); !st) return st;

  std::error_code ec;
  // Rotate the previous generation; a missing primary is fine (first write).
  // A *corrupt* primary (torn by power loss or a crashed writer) must not
  // be rotated over a still-valid `.1` — that would destroy the last good
  // generation. Validate before rotating and discard a bad primary when
  // the fallback is the better artifact.
  if (std::filesystem::exists(path, ec)) {
    if (!read_checkpoint_file(path) && read_checkpoint_file(path + ".1")) {
      std::filesystem::remove(path, ec);
      if (ec) return Error{"checkpoint-rotate", ec.message()};
    } else {
      const std::string prev = path + ".1";
      if (sys.rename(path.c_str(), prev.c_str()) < 0) {
        return sys_error("checkpoint-rotate", "rotate " + path, errno);
      }
    }
  }
  if (sys.rename(tmp.c_str(), path.c_str()) < 0) {
    // Torn rename: tmp stays behind, the durable names are untouched —
    // the previous generation (now at `.1`) remains restorable.
    return sys_error("checkpoint-rename", "rename into " + path, errno);
  }
  return sync_parent_dir(sys, path);
}

Result<std::vector<std::uint8_t>> read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{"checkpoint-open", "cannot open " + path};
  std::vector<std::uint8_t> raw((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());

  ByteReader r(raw);
  auto magic = r.u32le();
  if (!magic || magic.value() != kCheckpointMagic) {
    return Error{"checkpoint-magic", path + " is not a checkpoint"};
  }
  auto version = r.u32le();
  if (!version || version.value() != kCheckpointVersion) {
    return Error{"checkpoint-version",
                 "unsupported version in " + path +
                     (version ? " (" + std::to_string(version.value()) + ")" : "")};
  }
  auto len = r.u64le();
  auto crc = r.u32le();
  if (!crc) return Error{"checkpoint-truncated", path + " header incomplete"};
  auto payload = r.bytes(static_cast<std::size_t>(len.value()));
  if (!payload) {
    return Error{"checkpoint-truncated",
                 path + " declares " + std::to_string(len.value()) +
                     " payload bytes but holds fewer"};
  }
  if (crc32(*payload) != crc.value()) {
    return Error{"checkpoint-crc", path + " payload checksum mismatch"};
  }
  return std::vector<std::uint8_t>(payload->begin(), payload->end());
}

Result<std::vector<std::uint8_t>> read_latest_checkpoint(const std::string& path) {
  auto primary = read_checkpoint_file(path);
  if (primary) return primary;
  auto fallback = read_checkpoint_file(path + ".1");
  if (fallback) return fallback;
  // Report the primary's failure — it is the interesting one.
  return primary.error();
}

}  // namespace uncharted::core
