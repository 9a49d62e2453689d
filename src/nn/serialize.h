#ifndef OVS_NN_SERIALIZE_H_
#define OVS_NN_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "nn/tensor.h"
#include "util/status.h"

namespace ovs::nn {

/// Low-level record format shared by the module weights file (OVSM) and the
/// trainer checkpoint file (OVSC).
///
/// v1 record (legacy, still readable):
///   u32 name_len | name bytes | u32 rank | i32 dim[rank] | f32 data[numel]
/// v2 record: identical, plus a u32 CRC-32 of the payload bytes between the
/// dims and the data, so bit rot surfaces as Status::DataLoss instead of
/// loading as garbage weights.
///
/// Both files mark v2 by a version tag word after the magic:
///   u32 magic | u32 kVersionTag | u32 version | ...body...
/// A v1 OVSM file has the record count where the tag would be; kVersionTag
/// is chosen far outside any plausible count so the formats cannot collide.

constexpr uint32_t kVersionTag = 0xFFFFFFFEu;
constexpr uint32_t kFormatVersion = 2;

/// Magic of the module weights file ("OVSM").
constexpr uint32_t kOvsmMagic = 0x4F56534D;

/// Longest serialized name accepted when reading (also cheap corruption
/// rejection: a plausible file never gets close).
constexpr uint32_t kMaxNameLen = 4096;

/// Appends one tensor record to `os`. `with_crc` selects the v2 layout.
void WriteTensorRecord(std::ostream& os, const std::string& name,
                       const Tensor& t, bool with_crc);

/// Reads one tensor record. `remaining` is the number of bytes left in the
/// file from the current position; it is validated *before* any allocation
/// (a corrupt header cannot trigger a huge or overflowing allocation) and
/// decremented as bytes are consumed. `path` seasons error messages.
[[nodiscard]] Status ReadTensorRecord(std::istream& is, const std::string& path,
                                      bool with_crc, int64_t* remaining,
                                      std::string* name, Tensor* t);

/// Helpers for fixed-width scalar fields with the same remaining-bytes
/// discipline as ReadTensorRecord.
[[nodiscard]] Status ReadPod(std::istream& is, const std::string& path,
                             int64_t* remaining, void* out, size_t size);

/// Length-prefixed string (u32 length, validated against `remaining` and
/// `max_len` before allocation).
[[nodiscard]] Status ReadLenPrefixedString(std::istream& is,
                                           const std::string& path,
                                           int64_t* remaining, uint32_t max_len,
                                           std::string* out);
void WriteLenPrefixedString(std::ostream& os, const std::string& s);

/// Writes a full v2 OVSM weights body (magic, version tag, version, count,
/// CRC'd tensor records) in the order of `named`: the writer counterpart of
/// LoadNamedTensors, shared by Module::Save and snapshot saves so both
/// produce the same bytes for the same tensors.
void WriteNamedTensors(
    std::ostream& os,
    const std::vector<std::pair<std::string, const Tensor*>>& named);

/// Parses a full OVSM weights body (magic, optional v2 tag + version, count,
/// tensor records) from `is`, whose total length is `size` bytes. Fills `out`
/// with name→tensor. Works on any istream — a file, or an in-memory buffer of
/// bytes staged for hot-reload — so callers can validate a whole snapshot
/// before touching live state. `path` seasons error messages only.
[[nodiscard]] Status LoadNamedTensors(std::istream& is, const std::string& path,
                                      int64_t size,
                                      std::map<std::string, Tensor>* out);

}  // namespace ovs::nn

#endif  // OVS_NN_SERIALIZE_H_
