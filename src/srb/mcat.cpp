#include "srb/mcat.hpp"

namespace remio::srb {

Mcat::Mcat() { collections_.insert("/"); }

std::string Mcat::normalize(const std::string& path) {
  std::string out = "/";
  for (char c : path) {
    if (c == '/' && !out.empty() && out.back() == '/') continue;
    out.push_back(c);
  }
  if (out.size() > 1 && out.back() == '/') out.pop_back();
  return out;
}

std::string Mcat::parent_of(const std::string& path) {
  const std::string p = normalize(path);
  const auto slash = p.find_last_of('/');
  if (slash == 0 || slash == std::string::npos) return "/";
  return p.substr(0, slash);
}

bool Mcat::make_collection(const std::string& path) {
  const std::string p = normalize(path);
  std::lock_guard lk(mu_);
  if (objects_.count(p) != 0) return false;  // an object shadows the name
  std::string cur;
  std::size_t pos = 1;
  while (pos <= p.size()) {
    const auto next = p.find('/', pos);
    const std::size_t end = next == std::string::npos ? p.size() : next;
    cur = p.substr(0, end);
    if (!cur.empty() && objects_.count(cur) == 0) collections_.insert(cur);
    pos = end + 1;
  }
  return true;
}

bool Mcat::collection_exists(const std::string& path) const {
  std::lock_guard lk(mu_);
  return collections_.count(normalize(path)) != 0;
}

std::optional<ObjectId> Mcat::register_object(const std::string& path,
                                              const std::string& resource) {
  const std::string p = normalize(path);
  const std::string parent = parent_of(p);
  std::lock_guard lk(mu_);
  if (collections_.count(parent) == 0) return std::nullopt;
  if (objects_.count(p) != 0 || collections_.count(p) != 0)
    return std::nullopt;
  ObjectMeta m;
  m.id = next_id_++;
  m.resource = resource;
  objects_[p] = std::move(m);
  return objects_[p].id;
}

std::optional<ObjectId> Mcat::resolve(const std::string& path) const {
  std::lock_guard lk(mu_);
  const auto it = objects_.find(normalize(path));
  if (it == objects_.end()) return std::nullopt;
  return it->second.id;
}

std::optional<ObjectMeta> Mcat::meta(const std::string& path) const {
  std::lock_guard lk(mu_);
  const auto it = objects_.find(normalize(path));
  if (it == objects_.end()) return std::nullopt;
  return it->second;
}

std::optional<ObjectId> Mcat::unregister_object(const std::string& path) {
  std::lock_guard lk(mu_);
  const auto it = objects_.find(normalize(path));
  if (it == objects_.end()) return std::nullopt;
  const ObjectId id = it->second.id;
  objects_.erase(it);
  return id;
}

bool Mcat::set_attr(const std::string& path, const std::string& key,
                    const std::string& value) {
  std::lock_guard lk(mu_);
  const auto it = objects_.find(normalize(path));
  if (it == objects_.end()) return false;
  it->second.attrs[key] = value;
  return true;
}

std::optional<std::string> Mcat::get_attr(const std::string& path,
                                          const std::string& key) const {
  std::lock_guard lk(mu_);
  const auto it = objects_.find(normalize(path));
  if (it == objects_.end()) return std::nullopt;
  const auto ait = it->second.attrs.find(key);
  if (ait == it->second.attrs.end()) return std::nullopt;
  return ait->second;
}

std::vector<std::string> Mcat::list(const std::string& collection) const {
  const std::string base = normalize(collection);
  const std::string prefix = base == "/" ? "/" : base + "/";
  std::vector<std::string> out;
  std::lock_guard lk(mu_);
  auto is_child = [&](const std::string& p) {
    if (p.size() <= prefix.size() ||
        p.compare(0, prefix.size(), prefix) != 0)
      return false;
    return p.find('/', prefix.size()) == std::string::npos;
  };
  for (const auto& [p, meta] : objects_)
    if (is_child(p)) out.push_back(p);
  for (const auto& c : collections_)
    if (is_child(c)) out.push_back(c);
  return out;
}

std::size_t Mcat::object_count() const {
  std::lock_guard lk(mu_);
  return objects_.size();
}

}  // namespace remio::srb
