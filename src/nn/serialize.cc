#include "nn/serialize.h"

#include <limits>
#include <vector>

#include "util/crc32.h"

namespace ovs::nn {

namespace {

void WritePod(std::ostream& os, const void* data, size_t size) {
  os.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
}

}  // namespace

Status ReadPod(std::istream& is, const std::string& path, int64_t* remaining,
               void* out, size_t size) {
  if (*remaining < static_cast<int64_t>(size)) {
    return Status::DataLoss("truncated " + path);
  }
  is.read(static_cast<char*>(out), static_cast<std::streamsize>(size));
  if (!is.good()) return Status::DataLoss("truncated " + path);
  *remaining -= static_cast<int64_t>(size);
  return Status::Ok();
}

void WriteLenPrefixedString(std::ostream& os, const std::string& s) {
  const uint32_t len = static_cast<uint32_t>(s.size());
  WritePod(os, &len, sizeof(len));
  os.write(s.data(), static_cast<std::streamsize>(len));
}

Status ReadLenPrefixedString(std::istream& is, const std::string& path,
                             int64_t* remaining, uint32_t max_len,
                             std::string* out) {
  uint32_t len = 0;
  RETURN_IF_ERROR(ReadPod(is, path, remaining, &len, sizeof(len)));
  if (len > max_len || static_cast<int64_t>(len) > *remaining) {
    return Status::DataLoss("corrupt string length in " + path);
  }
  out->assign(len, '\0');
  is.read(out->data(), len);
  if (!is.good()) return Status::DataLoss("truncated " + path);
  *remaining -= len;
  return Status::Ok();
}

void WriteTensorRecord(std::ostream& os, const std::string& name,
                       const Tensor& t, bool with_crc) {
  WriteLenPrefixedString(os, name);
  const uint32_t rank = static_cast<uint32_t>(t.rank());
  WritePod(os, &rank, sizeof(rank));
  for (int d : t.shape()) {
    const int32_t dim = d;
    WritePod(os, &dim, sizeof(dim));
  }
  const size_t bytes = sizeof(float) * static_cast<size_t>(t.numel());
  if (with_crc) {
    const uint32_t crc = Crc32(t.data(), bytes);
    WritePod(os, &crc, sizeof(crc));
  }
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(bytes));
}

Status ReadTensorRecord(std::istream& is, const std::string& path,
                        bool with_crc, int64_t* remaining, std::string* name,
                        Tensor* t) {
  RETURN_IF_ERROR(ReadLenPrefixedString(is, path, remaining, kMaxNameLen, name));
  uint32_t rank = 0;
  RETURN_IF_ERROR(ReadPod(is, path, remaining, &rank, sizeof(rank)));
  if (rank > static_cast<uint32_t>(Shape::kMaxRank)) {
    return Status::DataLoss("corrupt tensor rank in " + path);
  }
  std::vector<int> shape(rank);
  // Element count in int64 so four maximal dims cannot overflow the int
  // arithmetic that Tensor uses internally; the remaining-file-size bound is
  // checked before any allocation happens.
  int64_t numel = 1;
  for (uint32_t d = 0; d < rank; ++d) {
    int32_t dim = 0;
    RETURN_IF_ERROR(ReadPod(is, path, remaining, &dim, sizeof(dim)));
    if (dim < 0 || dim > (1 << 28)) {
      return Status::DataLoss("corrupt tensor dim in " + path);
    }
    shape[d] = dim;
    numel *= dim;
    if (numel > std::numeric_limits<int>::max()) {
      return Status::DataLoss("tensor element count overflows in " + path);
    }
  }
  if (rank == 0) numel = 0;
  uint32_t stored_crc = 0;
  if (with_crc) {
    RETURN_IF_ERROR(ReadPod(is, path, remaining, &stored_crc,
                            sizeof(stored_crc)));
  }
  const int64_t bytes = numel * static_cast<int64_t>(sizeof(float));
  if (bytes > *remaining) {
    return Status::DataLoss("tensor '" + *name + "' in " + path +
                            " claims more data than the file holds");
  }
  Tensor loaded(shape);
  CHECK_EQ(static_cast<int64_t>(loaded.numel()), numel);
  is.read(reinterpret_cast<char*>(loaded.data()),
          static_cast<std::streamsize>(bytes));
  if (!is.good()) return Status::DataLoss("truncated " + path);
  *remaining -= bytes;
  if (with_crc) {
    const uint32_t actual =
        Crc32(loaded.data(), static_cast<size_t>(bytes));
    if (actual != stored_crc) {
      return Status::DataLoss("CRC mismatch for tensor '" + *name + "' in " +
                              path);
    }
  }
  *t = std::move(loaded);
  return Status::Ok();
}

void WriteNamedTensors(
    std::ostream& os,
    const std::vector<std::pair<std::string, const Tensor*>>& named) {
  const uint32_t header[] = {kOvsmMagic, kVersionTag, kFormatVersion,
                             static_cast<uint32_t>(named.size())};
  WritePod(os, header, sizeof(header));
  for (const auto& [name, t] : named) {
    WriteTensorRecord(os, name, *t, /*with_crc=*/true);
  }
}

Status LoadNamedTensors(std::istream& is, const std::string& path, int64_t size,
                        std::map<std::string, Tensor>* out) {
  if (size == 0) return Status::DataLoss("empty file: " + path);
  int64_t remaining = size;
  if (remaining < static_cast<int64_t>(2 * sizeof(uint32_t))) {
    return Status::DataLoss("headerless file (" + std::to_string(remaining) +
                            " bytes): " + path);
  }

  uint32_t magic = 0, second = 0, count = 0;
  RETURN_IF_ERROR(ReadPod(is, path, &remaining, &magic, sizeof(magic)));
  if (magic != kOvsmMagic) return Status::DataLoss("bad magic in " + path);
  // v1 files carry the record count right after the magic; v2 marks itself
  // with kVersionTag followed by a format-version word.
  RETURN_IF_ERROR(ReadPod(is, path, &remaining, &second, sizeof(second)));
  bool with_crc = false;
  if (second == kVersionTag) {
    uint32_t version = 0;
    RETURN_IF_ERROR(ReadPod(is, path, &remaining, &version, sizeof(version)));
    if (version != kFormatVersion) {
      return Status::DataLoss("unsupported checkpoint version " +
                              std::to_string(version) + " in " + path);
    }
    with_crc = true;
    RETURN_IF_ERROR(ReadPod(is, path, &remaining, &count, sizeof(count)));
  } else {
    count = second;
  }

  std::map<std::string, Tensor> loaded;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    Tensor t;
    RETURN_IF_ERROR(ReadTensorRecord(is, path, with_crc, &remaining, &name, &t));
    loaded.emplace(std::move(name), std::move(t));
  }
  *out = std::move(loaded);
  return Status::Ok();
}

}  // namespace ovs::nn
