#include "nn/module.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>

#include "nn/serialize.h"
#include "util/atomic_file.h"

namespace ovs::nn {

Variable Module::RegisterParameter(std::string name, Tensor init) {
  Variable v(std::move(init), /*requires_grad=*/true);
  params_.emplace_back(std::move(name), v);
  return v;
}

void Module::RegisterModule(std::string name, Module* module) {
  CHECK(module != nullptr);
  children_.emplace_back(std::move(name), module);
}

std::vector<Variable> Module::Parameters() const {
  std::vector<Variable> out;
  for (const auto& [name, v] : NamedParameters()) out.push_back(v);
  return out;
}

std::vector<std::pair<std::string, Variable>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Variable>> out;
  for (const auto& [name, v] : params_) out.emplace_back(name, v);
  for (const auto& [child_name, child] : children_) {
    for (const auto& [name, v] : child->NamedParameters()) {
      out.emplace_back(child_name + "." + name, v);
    }
  }
  return out;
}

void Module::ZeroGrad() {
  for (Variable& v : Parameters()) v.ZeroGrad();
}

void Module::SetTrainable(bool trainable) {
  for (Variable& v : Parameters()) v.set_requires_grad(trainable);
}

int Module::NumParameters() const {
  int n = 0;
  for (const Variable& v : Parameters()) n += v.numel();
  return n;
}


Status Module::Save(const std::string& path) const {
  // Atomic write discipline: a crash (or full disk) mid-save must leave the
  // previous weights file intact, never a readable prefix of the new one.
  AtomicFileWriter writer(path);
  RETURN_IF_ERROR(writer.status());
  const auto named = NamedParameters();
  std::vector<std::pair<std::string, const Tensor*>> tensors;
  tensors.reserve(named.size());
  for (const auto& [name, v] : named) tensors.emplace_back(name, &v.value());
  WriteNamedTensors(writer.stream(), tensors);
  // Commit checks the close and flush explicitly: a full disk surfacing at
  // destructor-flush time must be an error, not a silent half-file.
  return writer.Commit();
}

Status Module::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open for read: " + path);
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  if (ec) return Status::NotFound("cannot stat " + path + ": " + ec.message());
  std::map<std::string, Tensor> loaded;
  RETURN_IF_ERROR(LoadNamedTensors(in, path, static_cast<int64_t>(file_size),
                                   &loaded));

  auto named = NamedParameters();
  if (named.size() != loaded.size()) {
    return Status::InvalidArgument("parameter count mismatch loading " + path);
  }
  for (auto& [name, v] : named) {
    auto it = loaded.find(name);
    if (it == loaded.end()) {
      return Status::InvalidArgument("missing parameter " + name + " in " + path);
    }
    if (!it->second.SameShape(v.value())) {
      return Status::InvalidArgument("shape mismatch for " + name + " in " + path);
    }
    v.mutable_value() = it->second;
  }
  return Status::Ok();
}

void Module::CopyParametersFrom(const Module& other) {
  auto dst = NamedParameters();
  auto src = other.NamedParameters();
  CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    CHECK_EQ(dst[i].first, src[i].first);
    CHECK(dst[i].second.value().SameShape(src[i].second.value()));
    dst[i].second.mutable_value() = src[i].second.value();
  }
}

}  // namespace ovs::nn
