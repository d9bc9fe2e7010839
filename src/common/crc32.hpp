// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-record
// integrity check of the CRC-framed records (common/record_log.hpp,
// docs/FILE_FORMATS.md).
// Chosen over FNV for persistence because single-bit and burst errors
// are guaranteed detected; FNV remains the content-address hash.
#pragma once

#include <cstdint>
#include <string_view>

namespace gpuperf {

/// Running CRC: pass the previous result as `seed` to extend.  The
/// empty string maps to 0.
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

}  // namespace gpuperf
