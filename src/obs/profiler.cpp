#include "obs/profiler.hpp"

#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"

namespace flexmr::obs {

Profiler* Profiler::active_ = nullptr;

namespace {

std::uint64_t elapsed_ns(Profiler::Clock::time_point from,
                         Profiler::Clock::time_point to) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

}  // namespace

Profiler::Profiler() : started_(Clock::now()) {
  scopes_.reserve(64);
  stack_.reserve(16);
}

void Profiler::activate(Profiler& p) {
  FLEXMR_ASSERT_MSG(active_ == nullptr, "a profiler is already active");
  p.owner_ = std::this_thread::get_id();
  active_ = &p;
}

void Profiler::deactivate() noexcept { active_ = nullptr; }

std::uint32_t Profiler::intern(std::uint32_t parent, const char* name) {
  const std::vector<std::uint32_t>& siblings =
      parent == kNoParent ? roots_ : scopes_[parent].children;
  for (std::uint32_t id : siblings) {
    // Same call site passes the identical literal, so the pointer compare
    // almost always decides; strcmp covers distinct literals with equal text.
    if (scopes_[id].name == name || std::strcmp(scopes_[id].name, name) == 0) {
      return id;
    }
  }
  const auto id = static_cast<std::uint32_t>(scopes_.size());
  scopes_.push_back(Scope{name, parent, 0, 0, 0, {}});
  if (parent == kNoParent) {
    roots_.push_back(id);
  } else {
    scopes_[parent].children.push_back(id);
  }
  return id;
}

void Profiler::enter(const char* name) {
  FLEXMR_ASSERT_MSG(on_owner_thread(), "profiler scopes are owner-thread only");
  const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back().scope;
  const std::uint32_t id = intern(parent, name);
  stack_.push_back(Frame{id, Clock::now(), 0});
}

void Profiler::exit() {
  FLEXMR_ASSERT_MSG(!stack_.empty(), "profiler exit without matching enter");
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t elapsed = elapsed_ns(frame.start, Clock::now());
  Scope& s = scopes_[frame.scope];
  s.count += 1;
  s.inclusive_ns += elapsed;
  s.exclusive_ns += elapsed > frame.child_ns ? elapsed - frame.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += elapsed;
}

const Profiler::Scope* Profiler::find(const char* name) const noexcept {
  for (const Scope& s : scopes_) {
    if (s.name == name || std::strcmp(s.name, name) == 0) return &s;
  }
  return nullptr;
}

std::uint64_t Profiler::total_exclusive_ns() const noexcept {
  std::uint64_t total = 0;
  for (const Scope& s : scopes_) total += s.exclusive_ns;
  return total;
}

std::string Profiler::json() const {
  FLEXMR_ASSERT_MSG(stack_.empty(), "profiler json() with scopes still open");
  JsonWriter w;
  w.begin_object();
  w.field("schema", kSchema);
  w.key("host").begin_object();
  w.field("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.end_object();
  w.field("wall_ns", elapsed_ns(started_, Clock::now()));
  w.field("total_exclusive_ns", total_exclusive_ns());

  w.key("scopes").begin_array();
  for (std::size_t i = 0; i < scopes_.size(); ++i) {
    const Scope& s = scopes_[i];
    w.begin_object();
    w.field("id", static_cast<std::uint64_t>(i));
    w.field("name", s.name);
    // Parents precede children in creation order, so `parent < id` always
    // holds; -1 marks roots (friendlier to consumers than 2^32-1).
    w.field("parent", s.parent == kNoParent
                          ? static_cast<std::int64_t>(-1)
                          : static_cast<std::int64_t>(s.parent));
    w.field("count", s.count);
    w.field("inclusive_ns", s.inclusive_ns);
    w.field("exclusive_ns", s.exclusive_ns);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

}  // namespace flexmr::obs
