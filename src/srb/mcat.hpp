// MCAT — the SRB Metadata Catalog (§3.1). Maps the logical namespace
// (collections and data objects) to physical object ids and holds the
// user-visible attribute sets.
//
// Concurrency: one mutex in front of ordered containers, so every public
// operation is trivially linearizable. The catalog sits off the data path
// — sessions touch it for open/stat/unlink, the collection and attribute
// verbs, list and tenant login, while every read and write goes through
// the session's descriptor table — so it is not striped.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace remio::srb {

using ObjectId = std::uint64_t;
constexpr ObjectId kInvalidObject = 0;

struct ObjectMeta {
  ObjectId id = kInvalidObject;
  std::string resource;  // physical resource label ("orion-disk")
  std::map<std::string, std::string> attrs;
};

class Mcat {
 public:
  Mcat();

  Mcat(const Mcat&) = delete;
  Mcat& operator=(const Mcat&) = delete;

  /// Creates a collection (and intermediate parents). "/" always exists.
  bool make_collection(const std::string& path);
  bool collection_exists(const std::string& path) const;

  /// Registers a new data object at `path`; fails if taken or if the parent
  /// collection does not exist. Returns the new object id.
  std::optional<ObjectId> register_object(const std::string& path,
                                          const std::string& resource);

  std::optional<ObjectId> resolve(const std::string& path) const;
  std::optional<ObjectMeta> meta(const std::string& path) const;

  /// Removes the object entry; returns its id for store reclamation.
  std::optional<ObjectId> unregister_object(const std::string& path);

  bool set_attr(const std::string& path, const std::string& key,
                const std::string& value);
  std::optional<std::string> get_attr(const std::string& path,
                                      const std::string& key) const;

  /// Immediate children of a collection: objects, then sub-collections,
  /// each in path order.
  std::vector<std::string> list(const std::string& collection) const;

  std::size_t object_count() const;

  /// Path normalization: collapses duplicate '/', strips trailing '/'.
  static std::string normalize(const std::string& path);
  static std::string parent_of(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::map<std::string, ObjectMeta> objects_;
  std::set<std::string> collections_;
  ObjectId next_id_ = 1;
};

}  // namespace remio::srb
