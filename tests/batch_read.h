#ifndef CSXA_TESTS_BATCH_READ_H_
#define CSXA_TESTS_BATCH_READ_H_

// Test-side range read over the batch protocol: document bytes
// [pos, pos+n) are fetched as one run widened to fragment boundaries,
// verified and decrypted by DecryptVerifiedBatch into a document-sized
// buffer, and the requested slice is copied out.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/secure_store.h"

namespace csxa::testing {

/// The one-run request covering [pos, pos+n) of `store`'s document.
inline crypto::BatchRequest OneRunRequest(
    const crypto::SecureDocumentStore& store, uint64_t pos, uint64_t n) {
  const uint64_t frag = store.layout().fragment_size;
  crypto::BatchRequest request;
  request.runs.push_back(
      {pos / frag * frag,
       std::min<uint64_t>((pos + n + frag - 1) / frag * frag,
                          store.ciphertext().size())});
  return request;
}

inline Result<std::vector<uint8_t>> ReadVerified(
    const crypto::SecureDocumentStore& store, crypto::SoeDecryptor& soe,
    uint64_t pos, uint64_t n) {
  const crypto::BatchRequest request = OneRunRequest(store, pos, n);
  CSXA_ASSIGN_OR_RETURN(crypto::BatchResponse response,
                        store.ReadBatch(request));
  std::vector<uint8_t> doc(store.plaintext_size());
  CSXA_RETURN_NOT_OK(
      soe.DecryptVerifiedBatch(request, response, doc.data(), doc.size()));
  return std::vector<uint8_t>(doc.begin() + pos, doc.begin() + pos + n);
}

}  // namespace csxa::testing

#endif  // CSXA_TESTS_BATCH_READ_H_
