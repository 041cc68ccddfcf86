/// \file manifest.hpp
/// Done-cell checkpoint manifest for checkpointed sweeps (sim/dsweep.hpp).
///
/// A sweep that takes hours on a preemptible machine must not lose the
/// cells it already finished. The manifest is an append-fsync journal
/// living next to the `--json` sink (`<sink>.manifest`): the first line
/// names the run fingerprint, every following line is one completed cell
/// with its full record. `--resume` loads the journal, skips the
/// recorded cells, and merges their records byte-identically with the
/// freshly computed remainder; `--merge-shards` reassembles the journals
/// of a sharded run.
///
/// Durability model: each entry is a single O_APPEND write + fdatasync
/// (common/fsio.hpp), so a crash tears at most the final line; the
/// loader stops at the first line that fails the acceptance rule
/// (load_manifest) and the cells after it are simply recomputed. The
/// manifest is removed once the final document is committed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fsio.hpp"
#include "common/json.hpp"

namespace tbi::sim {

/// Fingerprint of a sweep run: a 64-bit hash (hex) over the kernel name,
/// the job configuration, the cell count and the base seed. Manifest
/// entries only ever apply to a run with an identical fingerprint —
/// resuming a 40-frame sweep from a 20-frame manifest would silently mix
/// incompatible records.
std::string sweep_fingerprint(const std::string& kernel, const Json& job,
                              std::uint64_t cells, std::uint64_t base_seed);

/// Contiguous cell range `[begin, end)` owned by one shard of a sweep.
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const { return end - begin; }
  bool contains(std::uint64_t cell) const { return cell >= begin && cell < end; }
};

/// Split \p cells into \p count contiguous ranges and return range
/// \p index: `[cells*index/count, cells*(index+1)/count)`. Every cell
/// belongs to exactly one shard and ranges differ in size by at most 1.
/// Throws std::invalid_argument when count == 0 or index >= count.
ShardRange shard_range(std::uint64_t cells, unsigned index, unsigned count);

/// Parse a `--shard I/N` spec. Throws std::invalid_argument on malformed
/// input, N == 0, or I >= N.
void parse_shard_spec(const std::string& spec, unsigned* index, unsigned* count);

struct ManifestEntry {
  std::uint64_t cell = 0;
  Json record;
};

struct ManifestLoad {
  bool found = false;           ///< the file existed and was readable
  bool fingerprint_ok = false;  ///< header matched the expected fingerprint
  /// Valid entry prefix in journal (arrival) order. Entries after a torn
  /// or corrupt line, or after a cell that is not an integer in
  /// [0, 2^53), are dropped.
  std::vector<ManifestEntry> entries;
};

/// Load \p path and validate it against \p fingerprint. The acceptance
/// rule (whole lines, a fingerprint header, integer cells below 2^53) is
/// the one ManifestWriter::open truncates a resumed journal by.
ManifestLoad load_manifest(const std::string& path, const std::string& fingerprint);

/// Append-fsync manifest writer.
class ManifestWriter {
 public:
  /// Open \p path for appending. \p fresh truncates and writes a new
  /// header; otherwise the journal is extended in place (resume). Sharded
  /// runs (shard_count > 1) annotate the header with their shard so a
  /// human can tell the journals apart — the resume/merge logic keys on
  /// the fingerprint alone. Returns false when the file cannot be opened
  /// or the header cannot be written.
  bool open(const std::string& path, const std::string& fingerprint, bool fresh,
            unsigned shard_index = 0, unsigned shard_count = 1);
  bool is_open() const { return log_.is_open(); }

  /// Append one completed cell. Returns false on write/sync failure.
  bool append(std::uint64_t cell, const Json& record);

  void close() { log_.close(); }

 private:
  AppendLog log_;
};

}  // namespace tbi::sim
