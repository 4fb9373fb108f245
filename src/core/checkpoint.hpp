// Crash-safe checkpoint files.
//
// A long-running streaming analyzer periodically snapshots its state so a
// crash (or kill -9) costs at most one checkpoint interval of work. The
// file format is designed for the failure modes that actually happen to a
// process dying mid-write:
//
//   [magic "UNCK"][version u32][payload_len u64][crc32 u32][payload bytes]
//
// - Writes go to `path.tmp` and are renamed into place, so `path` is always
//   either the previous complete checkpoint or the new complete one.
// - The tmp file is fsync'd BEFORE the rename and the parent directory
//   after it: without the first, a power loss after rename can surface a
//   zero-length or torn file under the durable name (which rotation would
//   then treat as the good copy); without the second, the rename itself
//   may not survive the crash.
// - The previous checkpoint is rotated to `path.1` first, so even a rename
//   caught mid-crash leaves one recoverable generation.
// - Readers validate magic, version, declared length and CRC-32 before
//   trusting a byte; a truncated or corrupted file is a clean error, never
//   a crash, and `read_latest_checkpoint` falls back to the rotation.
// - Every write-path syscall goes through faultinject::SysOps, so the
//   chaos tests can serve this code ENOSPC, EIO, failed fsync and torn
//   rename deterministically. A failed write never leaves a half-visible
//   checkpoint: the durable names keep their last good generation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "faultinject/sysfault.hpp"
#include "util/expected.hpp"

namespace uncharted::core {

inline constexpr std::uint32_t kCheckpointMagic = 0x554E434B;  // "UNCK"
// Version 2: DatasetBuilder serializes per-flow damage kinds (FlowDamage)
// instead of the former two-counter FlowHealth. Version 3: an engine tag
// byte chose between two ingest engines. Version 4: one engine; the
// StreamingAnalyzer payload starts with its lane count, and a restore
// rebuilds that many lanes at any --threads. Older checkpoints are
// rejected on read and the analyzer restarts from the capture — by
// design, never a crash.
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// Atomically replaces `path` with a checkpoint wrapping `payload`,
/// rotating any existing file to `path + ".1"` first. Durable: the tmp
/// file is fsync'd before the rename, the directory after. `sys` routes
/// the write-path syscalls (nullptr = the real kernel).
Status write_checkpoint_file(const std::string& path,
                             std::span<const std::uint8_t> payload,
                             faultinject::SysOps* sys = nullptr);

/// Reads and validates one checkpoint file; returns its payload.
Result<std::vector<std::uint8_t>> read_checkpoint_file(const std::string& path);

/// Reads `path`, falling back to `path + ".1"` when the primary is
/// missing, truncated or corrupt. Fails only when no generation is valid.
Result<std::vector<std::uint8_t>> read_latest_checkpoint(const std::string& path);

}  // namespace uncharted::core
