#include "sim/manifest.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace tbi::sim {

namespace {

/// FNV-1a, 64-bit. Not cryptographic — it only has to make accidental
/// config drift (different frames, seed, grid) collide with probability
/// ~2^-64, which is plenty for a resume guard.
std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xCBF29CE484222325ULL) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A journal's valid prefix. load_manifest and the resume truncation in
/// ManifestWriter::open both read it, so they apply one acceptance rule:
/// whole, newline-terminated lines; first a header naming a string
/// fingerprint, then entries with a record and a cell that is an integer
/// in [0, 2^53), the integers a Json number (a double) carries exactly.
/// The first line that fails the rule ends the prefix, like a crash's
/// torn tail: a cell of 2.5 or 1e300 would otherwise truncate to a real
/// cell index and a resume would adopt its record for that cell.
struct Journal {
  bool found = false;       ///< the file existed and was readable
  bool has_header = false;
  std::string fingerprint;  ///< the header's, when has_header
  std::vector<ManifestEntry> entries;
  std::size_t valid_bytes = 0;  ///< length of the valid prefix
  std::size_t file_bytes = 0;
};

/// Apply the acceptance rule to one non-empty line; false ends the prefix.
bool accept_line(const std::string& line, Journal& journal) {
  try {
    const Json v = Json::parse(line);
    if (!journal.has_header) {
      journal.fingerprint = v.at("fingerprint").as_string();
      journal.has_header = true;
      return true;
    }
    const double cell = v.at("cell").as_double();
    if (!(cell >= 0 && cell < 0x1p53 && std::floor(cell) == cell)) return false;
    journal.entries.push_back({static_cast<std::uint64_t>(cell), v.at("record")});
    return true;
  } catch (const JsonError&) {
    return false;
  }
}

Journal read_journal(const std::string& path) {
  Journal journal;
  std::ifstream in(path, std::ios::binary);
  if (!in) return journal;
  journal.found = true;
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  journal.file_bytes = data.size();
  for (std::size_t pos = 0, nl; (nl = data.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    if (nl > pos && !accept_line(data.substr(pos, nl - pos), journal)) break;
    journal.valid_bytes = nl + 1;
  }
  return journal;
}

}  // namespace

std::string sweep_fingerprint(const std::string& kernel, const Json& job,
                              std::uint64_t cells, std::uint64_t base_seed) {
  std::uint64_t h = fnv1a(kernel);
  h = fnv1a(job.dump(0), h);
  h = fnv1a(std::to_string(cells), h);
  h = fnv1a(std::to_string(base_seed), h);
  return hex64(h);
}

ShardRange shard_range(std::uint64_t cells, unsigned index, unsigned count) {
  if (count == 0) throw std::invalid_argument("shard: count must be >= 1");
  if (index >= count) {
    throw std::invalid_argument("shard: index " + std::to_string(index) +
                                " out of range for " + std::to_string(count) +
                                " shards");
  }
  ShardRange r;
  r.begin = cells * index / count;
  r.end = cells * (index + 1) / count;
  return r;
}

void parse_shard_spec(const std::string& spec, unsigned* index, unsigned* count) {
  const auto slash = spec.find('/');
  const auto digits_only = [](const std::string& s) {
    return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
  };
  if (slash == std::string::npos || !digits_only(spec.substr(0, slash)) ||
      !digits_only(spec.substr(slash + 1))) {
    throw std::invalid_argument("shard: expected I/N, got '" + spec + "'");
  }
  const unsigned long i = std::strtoul(spec.c_str(), nullptr, 10);
  const unsigned long n = std::strtoul(spec.c_str() + slash + 1, nullptr, 10);
  if (n == 0 || i >= n) {
    throw std::invalid_argument("shard: index must satisfy I < N in '" + spec + "'");
  }
  *index = static_cast<unsigned>(i);
  *count = static_cast<unsigned>(n);
}

ManifestLoad load_manifest(const std::string& path, const std::string& fingerprint) {
  Journal journal = read_journal(path);
  ManifestLoad out;
  out.found = journal.found;
  out.fingerprint_ok = journal.has_header && journal.fingerprint == fingerprint;
  if (out.fingerprint_ok) out.entries = std::move(journal.entries);
  return out;
}

bool ManifestWriter::open(const std::string& path, const std::string& fingerprint,
                          bool fresh, unsigned shard_index, unsigned shard_count) {
  if (!fresh) {
    // Resume must not append after a torn tail: every later load — the
    // next resume, and above all the shard merge — stops at the first
    // unparseable line and would never see what was written beyond it.
    // Truncate the journal back to its valid prefix first.
    const Journal journal = read_journal(path);
    if (journal.valid_bytes < journal.file_bytes) {
      ::truncate(path.c_str(), static_cast<off_t>(journal.valid_bytes));
    }
  }
  if (!log_.open(path, fresh)) return false;
  if (fresh) {
    Json header;
    header["fingerprint"] = fingerprint;
    if (shard_count > 1) {
      header["shard_index"] = static_cast<std::uint64_t>(shard_index);
      header["shard_count"] = static_cast<std::uint64_t>(shard_count);
    }
    return log_.append_line(header.dump(0));
  }
  return true;
}

bool ManifestWriter::append(std::uint64_t cell, const Json& record) {
  Json entry;
  entry["cell"] = cell;
  entry["record"] = record;
  return log_.append_line(entry.dump(0));
}

}  // namespace tbi::sim
