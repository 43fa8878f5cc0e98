// Backend parameterization for the crash-matrix test suites: every
// storage-semantics test runs twice, once over MemStorage (the model)
// and once over FileStorage on a fresh temp directory (the real POSIX
// implementation), each under a CrashingStorage. The decorator is the
// one fault injector, so both backends see the same write indices, the
// same torn/corrupt/after semantics and the same transient faults, and
// the recovery proofs hold for the real files as well as the model.

#ifndef MERGEABLE_TESTS_AGGREGATE_STORAGE_BACKENDS_H_
#define MERGEABLE_TESTS_AGGREGATE_STORAGE_BACKENDS_H_

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/file_storage.h"
#include "mergeable/aggregate/storage.h"

namespace mergeable {

enum class BackendKind { kMem, kFile };

inline const char* BackendName(BackendKind kind) {
  return kind == BackendKind::kMem ? "Mem" : "File";
}

// Makes fresh backends of one kind. File backends each get their own
// subdirectory of a mkdtemp root (removed on destruction), so a
// crash-matrix loop that makes a new storage per crash point always
// starts from clean media. The factory owns every backend it makes.
class BackendFactory {
 public:
  explicit BackendFactory(BackendKind kind) : kind_(kind) {
    if (kind_ == BackendKind::kFile) {
      std::string tmpl =
          (std::filesystem::temp_directory_path() / "mergeable_bk_XXXXXX")
              .string();
      root_ = ::mkdtemp(tmpl.data());
    }
  }
  ~BackendFactory() {
    if (!root_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(root_, ec);
    }
  }
  BackendFactory(const BackendFactory&) = delete;
  BackendFactory& operator=(const BackendFactory&) = delete;

  // A fresh plain backend.
  Storage* MakeBackend() {
    if (kind_ == BackendKind::kMem) {
      backends_.push_back(std::make_unique<MemStorage>());
    } else {
      backends_.push_back(std::make_unique<FileStorage>(
          root_ + "/i" + std::to_string(backends_.size())));
    }
    return backends_.back().get();
  }

  // A CrashingStorage over a fresh backend, crashing at `crash`.
  std::unique_ptr<CrashingStorage> Make(CrashPoint crash = {}) {
    return std::make_unique<CrashingStorage>(MakeBackend(), crash);
  }

  BackendKind kind() const { return kind_; }

 private:
  BackendKind kind_;
  std::string root_;
  std::vector<std::unique_ptr<Storage>> backends_;
};

}  // namespace mergeable

#endif  // MERGEABLE_TESTS_AGGREGATE_STORAGE_BACKENDS_H_
