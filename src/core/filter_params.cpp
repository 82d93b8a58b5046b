#include "core/filter_params.hpp"

#include <sstream>

#include "common/error.hpp"

namespace tbon {
namespace {

void validate_token(const std::string& token, const char* what) {
  if (token.find(' ') != std::string::npos || token.find('=') != std::string::npos) {
    throw ParseError(std::string("filter param ") + what + " '" + token +
                     "' must not contain ' ' or '='");
  }
}

}  // namespace

FilterParams& FilterParams::set(std::string key, std::string value) {
  if (key.empty()) throw ParseError("filter param key must not be empty");
  validate_token(key, "key");
  validate_token(value, "value");
  values_[std::move(key)] = std::move(value);
  return *this;
}

FilterParams& FilterParams::set(std::string key, std::int64_t value) {
  return set(std::move(key), std::to_string(value));
}

FilterParams& FilterParams::set(std::string key, double value) {
  std::ostringstream out;
  out << value;  // round-trips through Config::get_double
  return set(std::move(key), out.str());
}

FilterParams& FilterParams::set(std::string key, bool value) {
  return set(std::move(key), std::string(value ? "true" : "false"));
}

std::string FilterParams::to_wire() const {
  std::string wire;
  for (const auto& [key, value] : values_) {
    if (!wire.empty()) wire += ' ';
    wire += key;
    wire += '=';
    wire += value;
  }
  return wire;
}

}  // namespace tbon
