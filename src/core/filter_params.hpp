// Typed per-stream filter parameters.
//
// A FilterParams is built with typed set() calls, validated at the call site
// (ParseError on keys/values that could not round-trip), and serialized to
// the space-separated "key=value" wire form with to_wire(); filters read it
// back through FilterContext::params.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace tbon {

class FilterParams {
 public:
  FilterParams() = default;

  /// Typed setters; all return *this for chaining.  Keys must be non-empty
  /// and neither keys nor values may contain ' ' or '=' (ParseError).
  FilterParams& set(std::string key, std::string value);
  FilterParams& set(std::string key, std::string_view value) {
    return set(std::move(key), std::string(value));
  }
  FilterParams& set(std::string key, const char* value) {
    return set(std::move(key), std::string(value));
  }
  FilterParams& set(std::string key, std::int64_t value);
  FilterParams& set(std::string key, int value) {
    return set(std::move(key), static_cast<std::int64_t>(value));
  }
  FilterParams& set(std::string key, double value);
  FilterParams& set(std::string key, bool value);

  bool empty() const noexcept { return values_.size() == 0; }
  bool has(const std::string& key) const { return values_.count(key) != 0; }

  /// Serialize to the wire form carried in StreamSpec::params: key=value
  /// pairs, space-separated, sorted by key.
  std::string to_wire() const;

  friend bool operator==(const FilterParams&, const FilterParams&) = default;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace tbon
