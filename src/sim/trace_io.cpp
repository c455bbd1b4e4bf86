#include "src/sim/trace_io.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/config.h"

namespace lgfi {
namespace {

constexpr char kMagic[4] = {'L', 'G', 'T', '1'};

void write_varint(std::FILE* f, unsigned long long v) {
  // LEB128: 7 payload bits per byte, high bit = continuation.
  do {
    unsigned char byte = static_cast<unsigned char>(v & 0x7fu);
    v >>= 7;
    if (v != 0) byte |= 0x80u;
    std::fputc(byte, f);
  } while (v != 0);
}

enum class VarintRead { kOk, kEnd, kTruncated, kOverlong };

/// kEnd only when the file ends before the varint's first byte; a file that
/// ends inside it is kTruncated, and one that does not fit in 64 bits (more
/// than ten bytes, or payload bits past bit 63) is kOverlong.
VarintRead read_varint(std::FILE* f, unsigned long long& out) {
  out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const int c = std::fgetc(f);
    if (c == EOF) return shift == 0 ? VarintRead::kEnd : VarintRead::kTruncated;
    const auto payload = static_cast<unsigned long long>(c & 0x7f);
    if (shift == 63 && payload > 1) return VarintRead::kOverlong;
    out |= payload << shift;
    if ((c & 0x80) == 0) return VarintRead::kOk;
  }
  return VarintRead::kOverlong;
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw ConfigError("trace '" + path + "': " + what);
}

}  // namespace

struct TraceWriter::Impl {
  std::string path;
  std::FILE* file = nullptr;
};

TraceWriter::TraceWriter(const std::string& path, const Topology& mesh) : impl_(new Impl) {
  impl_->path = path;
  impl_->file = std::fopen(path.c_str(), "wb");
  if (impl_->file == nullptr) fail(path, "cannot open for writing");
  std::fwrite(kMagic, 1, sizeof kMagic, impl_->file);
  write_varint(impl_->file, static_cast<unsigned long long>(mesh.node_count()));
  write_varint(impl_->file, static_cast<unsigned long long>(mesh.concentration()));
}

TraceWriter::~TraceWriter() {
  if (impl_->file != nullptr) std::fclose(impl_->file);
  delete impl_;
}

void TraceWriter::add(long long step, int slot, NodeId dest, int size) {
  write_varint(impl_->file, static_cast<unsigned long long>(step - last_step_));
  write_varint(impl_->file, static_cast<unsigned long long>(slot));
  write_varint(impl_->file, static_cast<unsigned long long>(dest));
  write_varint(impl_->file, static_cast<unsigned long long>(size));
  last_step_ = step;
  ++records_;
}

void TraceWriter::close() {
  if (impl_->file == nullptr) return;
  const bool ok = std::fclose(impl_->file) == 0;
  impl_->file = nullptr;
  if (!ok) fail(impl_->path, "write failed on close");
}

std::vector<TraceRecord> read_trace(const std::string& path, const Topology& mesh) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail(path, "cannot open (does the file exist?)");
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  char magic[4] = {};
  if (std::fread(magic, 1, sizeof magic, f) != sizeof magic ||
      std::memcmp(magic, kMagic, sizeof magic) != 0) {
    fail(path, "not an LGT1 trace file");
  }
  unsigned long long nodes = 0;
  unsigned long long concentration = 0;
  if (read_varint(f, nodes) != VarintRead::kOk ||
      read_varint(f, concentration) != VarintRead::kOk) {
    fail(path, "truncated header");
  }
  if (nodes != static_cast<unsigned long long>(mesh.node_count()) ||
      concentration != static_cast<unsigned long long>(mesh.concentration())) {
    fail(path, "recorded on a different topology (" + std::to_string(nodes) + " nodes x " +
                   std::to_string(concentration) + " terminals/node; this run has " +
                   std::to_string(mesh.node_count()) + " x " +
                   std::to_string(mesh.concentration()) + ")");
  }

  std::vector<TraceRecord> records;
  long long step = 0;
  const long long slots =
      static_cast<long long>(mesh.node_count()) * static_cast<long long>(mesh.concentration());
  for (;;) {
    const auto bad = [&](const char* what) {
      fail(path, "record " + std::to_string(records.size()) + ": " + what);
    };
    // Step delta, slot, dest, size.  Only the first field may meet a clean
    // end of file: that is the end between records.
    unsigned long long fields[4] = {};
    const VarintRead first = read_varint(f, fields[0]);
    if (first == VarintRead::kEnd) break;
    for (int i = 0; i < 4; ++i) {
      const VarintRead got = i == 0 ? first : read_varint(f, fields[i]);
      if (got == VarintRead::kEnd) bad("truncated record");
      if (got == VarintRead::kTruncated) bad("truncated varint");
      if (got == VarintRead::kOverlong) bad("over-long varint");
    }
    const auto [delta, slot, dest, size] = fields;
    // Range checks come before the signed casts.
    if (delta > static_cast<unsigned long long>(LLONG_MAX - step)) bad("step overflows");
    if (slot >= static_cast<unsigned long long>(slots)) bad("slot out of range");
    if (dest >= static_cast<unsigned long long>(mesh.node_count())) {
      bad("destination out of range");
    }
    if (size == 0 || size > static_cast<unsigned long long>(INT_MAX)) bad("size out of range");
    // Replay walks the records with one cursor, so a record at or before
    // its predecessor's (step, slot) would never fire.
    if (!records.empty() && delta == 0 &&
        static_cast<long long>(slot) <= static_cast<long long>(records.back().slot)) {
      bad("not after the previous record in (step, slot) order");
    }
    step += static_cast<long long>(delta);
    TraceRecord r;
    r.step = step;
    r.slot = static_cast<int>(slot);
    r.dest = static_cast<NodeId>(dest);
    r.size = static_cast<int>(size);
    records.push_back(r);
  }
  return records;
}

}  // namespace lgfi
