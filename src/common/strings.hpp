// Small string utilities shared across the library (the PTX lexer has
// its own tokenizer; these are for CSV, table formatting and name
// handling).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace gpuperf {

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a single delimiter character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on any ASCII whitespace run; drops empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

std::string to_lower(std::string_view s);

/// Format a non-negative integer with thousands separators
/// ("25549352" -> "25,549,352"), as in the paper's Table I.
std::string with_commas(long long value);

/// Fixed-precision formatting of a double ("5.73").
std::string fixed(double value, int digits);

/// 17 significant digits, which round-trips an IEEE double exactly: the
/// number format of every persisted file and wire payload.
std::string full_precision(double value);

/// Parse helpers; GP_CHECK-fail on malformed input.
long long parse_int(std::string_view s);
double parse_double(std::string_view s);

}  // namespace gpuperf
