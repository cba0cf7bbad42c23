#include "src/disk/image.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "src/util/bytes.h"

namespace cffs::disk {

namespace {

constexpr char kMagic[8] = {'C', 'F', 'F', 'S', 'I', 'M', 'G', '1'};
constexpr size_t kChunkBytes =
    DiskModel::kImageChunkSectors * kSectorSize;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

void PutTime(std::span<uint8_t> buf, size_t off, SimTime t) {
  PutU64(buf, off, static_cast<uint64_t>(t.nanos()));
}
SimTime GetTime(std::span<const uint8_t> buf, size_t off) {
  return SimTime::Nanos(static_cast<int64_t>(GetU64(buf, off)));
}

}  // namespace

Status SaveDiskImage(const DiskModel& disk, const std::string& path) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return IoError("cannot open image for writing: " + path);

  const DiskSpec& spec = disk.spec();
  // Header: magic + fixed spec fields + zone table.
  std::vector<uint8_t> header(128 + spec.zones.size() * 8 + spec.name.size());
  std::memcpy(header.data(), kMagic, 8);
  PutU32(header, 8, spec.rpm);
  PutU32(header, 12, spec.heads);
  PutTime(header, 16, spec.seek_single);
  PutTime(header, 24, spec.seek_avg);
  PutTime(header, 32, spec.seek_max);
  PutTime(header, 40, spec.head_switch);
  PutTime(header, 48, spec.command_overhead);
  PutU64(header, 56, static_cast<uint64_t>(spec.bus_mb_per_s * 1000));
  PutU32(header, 64, spec.cache_segments);
  PutU32(header, 68, spec.prefetch_sectors);
  header[72] = spec.write_cache_enabled ? 1 : 0;
  PutU32(header, 76, static_cast<uint32_t>(spec.zones.size()));
  PutU32(header, 80, static_cast<uint32_t>(spec.name.size()));
  size_t off = 128;
  for (const Zone& z : spec.zones) {
    PutU32(header, off, z.cylinders);
    PutU32(header, off + 4, z.sectors_per_track);
    off += 8;
  }
  PutBytes(header, off, spec.name);
  if (std::fwrite(header.data(), 1, header.size(), f.get()) != header.size()) {
    return IoError("short header write");
  }

  // Chunks.
  uint64_t count = 0;
  disk.ForEachChunk([&](uint64_t, std::span<const uint8_t>) { ++count; });
  std::vector<uint8_t> c8(8);
  PutU64(c8, 0, count);
  if (std::fwrite(c8.data(), 1, 8, f.get()) != 8) return IoError("write");

  Status status = OkStatus();
  disk.ForEachChunk([&](uint64_t idx, std::span<const uint8_t> data) {
    if (!status.ok()) return;
    std::vector<uint8_t> i8(8);
    PutU64(i8, 0, idx);
    if (std::fwrite(i8.data(), 1, 8, f.get()) != 8 ||
        std::fwrite(data.data(), 1, data.size(), f.get()) != data.size()) {
      status = IoError("short chunk write");
    }
  });
  return status;
}

Result<std::unique_ptr<DiskModel>> LoadDiskImage(const std::string& path,
                                                 SimClock* clock) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return IoError("cannot open image: " + path);

  std::vector<uint8_t> fixed(128);
  if (std::fread(fixed.data(), 1, 128, f.get()) != 128) {
    return Corrupt("image too short");
  }
  if (std::memcmp(fixed.data(), kMagic, 8) != 0) {
    return Corrupt("bad image magic");
  }
  DiskSpec spec;
  spec.rpm = GetU32(fixed, 8);
  spec.heads = GetU32(fixed, 12);
  spec.seek_single = GetTime(fixed, 16);
  spec.seek_avg = GetTime(fixed, 24);
  spec.seek_max = GetTime(fixed, 32);
  spec.head_switch = GetTime(fixed, 40);
  spec.command_overhead = GetTime(fixed, 48);
  spec.bus_mb_per_s = static_cast<double>(GetU64(fixed, 56)) / 1000.0;
  spec.cache_segments = GetU32(fixed, 64);
  spec.prefetch_sectors = GetU32(fixed, 68);
  spec.write_cache_enabled = fixed[72] != 0;
  const uint32_t nzones = GetU32(fixed, 76);
  const uint32_t name_len = GetU32(fixed, 80);
  if (nzones == 0 || nzones > 64 || name_len > 256) {
    return Corrupt("implausible image header");
  }

  std::vector<uint8_t> tail(nzones * 8 + name_len);
  if (std::fread(tail.data(), 1, tail.size(), f.get()) != tail.size()) {
    return Corrupt("truncated zone table");
  }
  for (uint32_t z = 0; z < nzones; ++z) {
    spec.zones.push_back(
        {GetU32(tail, z * 8), GetU32(tail, z * 8 + 4)});
  }
  spec.name = GetBytes(tail, nzones * 8, name_len);

  auto disk = std::make_unique<DiskModel>(spec, clock);

  std::vector<uint8_t> c8(8);
  if (std::fread(c8.data(), 1, 8, f.get()) != 8) return Corrupt("no count");
  const uint64_t count = GetU64(c8, 0);
  std::vector<uint8_t> chunk(kChunkBytes);
  for (uint64_t i = 0; i < count; ++i) {
    if (std::fread(c8.data(), 1, 8, f.get()) != 8 ||
        std::fread(chunk.data(), 1, kChunkBytes, f.get()) != kChunkBytes) {
      return Corrupt("truncated chunk");
    }
    disk->RestoreChunk(GetU64(c8, 0), chunk);
  }
  return disk;
}

uint64_t ImageHash(const DiskModel& disk) {
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = 1469598103934665603ull;
  disk.ForEachChunk([&h](uint64_t chunk_index, std::span<const uint8_t> data) {
    h ^= chunk_index;
    h *= kPrime;
    for (uint8_t b : data) {
      h ^= b;
      h *= kPrime;
    }
  });
  return h;
}

}  // namespace cffs::disk
