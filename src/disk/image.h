// Disk image files: persist a simulated disk (spec + contents) so the
// command-line tools (cffs_mkfs, cffs_fsck, cffs_debug) can operate on the
// same file system across invocations, like their real counterparts.
//
// Format (little-endian):
//   "CFFSIMG1" | spec block (name, rpm, heads, timing, zones) |
//   u64 chunk_count | chunk_count x { u64 chunk_index, 128 KiB raw data }
// Only chunks that were ever written are stored, so images stay small.
#ifndef CFFS_DISK_IMAGE_H_
#define CFFS_DISK_IMAGE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/disk/disk_model.h"

namespace cffs::disk {

Status SaveDiskImage(const DiskModel& disk, const std::string& path);

Result<std::unique_ptr<DiskModel>> LoadDiskImage(const std::string& path,
                                                 SimClock* clock);

// 64-bit FNV-1a over every allocated chunk of the platter, in chunk order:
// each chunk's index, then its bytes. Equal contents give equal digests, so
// tests compare whole images with it.
uint64_t ImageHash(const DiskModel& disk);

}  // namespace cffs::disk

#endif  // CFFS_DISK_IMAGE_H_
