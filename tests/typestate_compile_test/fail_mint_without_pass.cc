// Laundering attempt: construct a VerifiedPlaintext without the passkey.
// The only constructor demands a VerifyPass before the (pointer, size)
// view it borrows.
#include <cstddef>
#include <cstdint>

#include "common/tainted.h"

csxa::common::VerifiedPlaintext Attack(const uint8_t* data, size_t size) {
  return csxa::common::VerifiedPlaintext(data, size);
}
