#include "exec/target.h"

#include <mutex>
#include <stdexcept>

#include "exec/builtin.h"

namespace cn::exec {
namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Target>> targets;
  const Target* builtin_default = nullptr;  // the "simd" family
  const Target* override_default = nullptr; // set_default_target
  bool initialized = false;
};

Registry& registry() {
  static Registry r;
  return r;
}

const Target* find_locked(const Registry& r, const std::string& name) {
  for (const auto& t : r.targets)
    if (t->name() == name) return t.get();
  return nullptr;
}

std::string names_locked(const Registry& r) {
  std::string s;
  for (const auto& t : r.targets) {
    if (!s.empty()) s += ", ";
    s += t->name();
  }
  return s;
}

const Target& resolve_locked(const Registry& r, const std::string& name,
                             const char* what) {
  const Target* t = find_locked(r, name);
  if (!t)
    throw std::runtime_error(std::string(what) + ": unknown execution target '" +
                             name + "' (registered: " + names_locked(r) + ")");
  if (!t->available())
    throw std::runtime_error(std::string(what) + ": execution target '" + name +
                             "' is not available on this build/host");
  return *t;
}

// The builtin registers lazily on first registry use rather than via a
// static registrar object (see builtin.h).
void ensure_init_locked(Registry& r) {
  if (r.initialized) return;
  r.initialized = true;
  r.targets.push_back(detail::make_simd_target());
  r.builtin_default = r.targets.back().get();
}

}  // namespace

const Target* register_target(std::unique_ptr<Target> target) {
  if (!target) throw std::invalid_argument("register_target: null target");
  const std::string name = target->name();
  if (name.empty()) throw std::invalid_argument("register_target: empty name");
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  ensure_init_locked(r);
  if (find_locked(r, name))
    throw std::invalid_argument("register_target: duplicate execution target '" +
                                name + "'");
  r.targets.push_back(std::move(target));
  return r.targets.back().get();
}

const Target* find_target(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  ensure_init_locked(r);
  return find_locked(r, name);
}

const Target& get_target(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  ensure_init_locked(r);
  return resolve_locked(r, name, "get_target");
}

std::vector<const Target*> registered_targets() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  ensure_init_locked(r);
  std::vector<const Target*> out;
  out.reserve(r.targets.size());
  for (const auto& t : r.targets) out.push_back(t.get());
  return out;
}

const Target& default_target() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  ensure_init_locked(r);
  return r.override_default ? *r.override_default : *r.builtin_default;
}

void set_default_target(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  ensure_init_locked(r);
  r.override_default = &resolve_locked(r, name, "set_default_target");
}

void reset_default_target() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  ensure_init_locked(r);
  r.override_default = nullptr;
}

}  // namespace cn::exec
