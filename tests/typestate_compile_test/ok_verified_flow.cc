// Legitimate flows: everything the typestate wall must keep compiling.
// Builds with -Wall -Wextra -Werror.
#include <cstdint>
#include <utility>
#include <vector>

#include "common/tainted.h"
#include "crypto/secure_store.h"
#include "index/decoder.h"

namespace {

// Honest pre-verification uses: sizes for framing, copying tainted bytes
// around as tainted bytes.
uint64_t FrameSize(const csxa::common::UnverifiedBytes& tainted) {
  csxa::common::UnverifiedBytes still_tainted = tainted;  // copy is fine
  return still_tainted.size() + (tainted.empty() ? 0 : 1);
}

// The verification path fills the buffer and the decryptor mints the
// witness over it; consumers may move and read it freely.
csxa::Status VerifyAndOpen(csxa::crypto::SoeDecryptor* soe,
                           const csxa::crypto::BatchRequest& request,
                           const csxa::crypto::BatchResponse& response,
                           std::vector<uint8_t>* buffer,
                           std::vector<uint8_t>* out) {
  csxa::Status st = soe->DecryptVerifiedBatch(request, response,
                                              buffer->data(), buffer->size());
  if (!st.ok()) return st;
  csxa::common::VerifiedPlaintext view =
      soe->VerifiedViewOf(buffer->data(), buffer->size());
  csxa::common::VerifiedPlaintext moved = std::move(view);
  out->assign(moved.data(), moved.data() + moved.size());
  auto nav = csxa::index::DocumentNavigator::OpenBuffer(moved, nullptr);
  return nav.status();
}

}  // namespace

csxa::Status Probe(csxa::crypto::SoeDecryptor* soe,
                   const csxa::crypto::BatchRequest& request,
                   const csxa::crypto::BatchResponse& response,
                   std::vector<uint8_t>* buffer, std::vector<uint8_t>* out) {
  if (response.segments.empty() ||
      FrameSize(response.segments[0].ciphertext) == 0) {
    return csxa::Status::OK();
  }
  return VerifyAndOpen(soe, request, response, buffer, out);
}
