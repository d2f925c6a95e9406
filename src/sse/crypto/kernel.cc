#include "sse/crypto/kernel.h"

#include <openssl/core_names.h>
#include <openssl/evp.h>
#include <openssl/params.h>

#include <algorithm>
#include <array>
#include <climits>
#include <memory>

namespace sse::crypto::kernel {

namespace {

const char kStepLabel[] = "sse.chain.step";
const char kTagLabel[] = "sse.chain.tag";

/// The four algorithms, fetched from the default provider on first use.
/// Never freed: a thread still running at exit may hold contexts that
/// reference them.
struct Algorithms {
  EVP_MD* sha256 = EVP_MD_fetch(nullptr, "SHA256", nullptr);
  EVP_MAC* hmac = EVP_MAC_fetch(nullptr, "HMAC", nullptr);
  EVP_CIPHER* aes_ctr = EVP_CIPHER_fetch(nullptr, "AES-256-CTR", nullptr);
  EVP_CIPHER* aes_gcm = EVP_CIPHER_fetch(nullptr, "AES-256-GCM", nullptr);

  bool ok() const {
    return sha256 != nullptr && hmac != nullptr && aes_ctr != nullptr &&
           aes_gcm != nullptr;
  }
};

const Algorithms& Fetched() {
  static const Algorithms* algorithms = new Algorithms();
  return *algorithms;
}

struct MdCtxFree {
  void operator()(EVP_MD_CTX* ctx) const { EVP_MD_CTX_free(ctx); }
};
struct MacCtxFree {
  void operator()(EVP_MAC_CTX* ctx) const { EVP_MAC_CTX_free(ctx); }
};
struct CipherCtxFree {
  void operator()(EVP_CIPHER_CTX* ctx) const { EVP_CIPHER_CTX_free(ctx); }
};
using MdCtx = std::unique_ptr<EVP_MD_CTX, MdCtxFree>;
using MacCtx = std::unique_ptr<EVP_MAC_CTX, MacCtxFree>;
using CipherCtx = std::unique_ptr<EVP_CIPHER_CTX, CipherCtxFree>;

/// The calling thread's contexts: created on its first kernel call, bound
/// to their algorithm once, and freed when the thread exits.
struct ThreadContexts {
  ThreadContexts() {
    const Algorithms& algorithms = Fetched();
    if (!algorithms.ok()) return;
    digest.reset(EVP_MD_CTX_new());
    step_prefix.reset(EVP_MD_CTX_new());
    tag_prefix.reset(EVP_MD_CTX_new());
    hmac.reset(EVP_MAC_CTX_new(algorithms.hmac));
    ctr.reset(EVP_CIPHER_CTX_new());
    gcm.reset(EVP_CIPHER_CTX_new());
    if (!digest || !step_prefix || !tag_prefix || !hmac || !ctr || !gcm) {
      return;
    }
    char digest_name[] = "SHA256";
    const OSSL_PARAM hmac_params[] = {
        OSSL_PARAM_construct_utf8_string(OSSL_MAC_PARAM_DIGEST, digest_name,
                                         0),
        OSSL_PARAM_construct_end()};
    ready =
        EVP_DigestInit_ex2(step_prefix.get(), algorithms.sha256, nullptr) ==
            1 &&
        EVP_DigestUpdate(step_prefix.get(), kStepLabel,
                         sizeof(kStepLabel) - 1) == 1 &&
        EVP_DigestInit_ex2(tag_prefix.get(), algorithms.sha256, nullptr) ==
            1 &&
        EVP_DigestUpdate(tag_prefix.get(), kTagLabel, sizeof(kTagLabel) - 1) ==
            1 &&
        EVP_MAC_CTX_set_params(hmac.get(), hmac_params) == 1 &&
        EVP_EncryptInit_ex2(ctr.get(), algorithms.aes_ctr, nullptr, nullptr,
                            nullptr) == 1 &&
        EVP_EncryptInit_ex2(gcm.get(), algorithms.aes_gcm, nullptr, nullptr,
                            nullptr) == 1;
  }

  MdCtx digest;       // SHA-256, and the working copy of a chain prefix
  MdCtx step_prefix;  // SHA-256 with kStepLabel absorbed
  MdCtx tag_prefix;   // SHA-256 with kTagLabel absorbed
  MacCtx hmac;        // HMAC with its digest set to SHA-256
  CipherCtx ctr;      // AES-256-CTR, re-keyed per call
  CipherCtx gcm;      // AES-256-GCM, re-keyed per call
  bool ready = false;
};

/// The calling thread's contexts, or null if a fetch or an allocation
/// failed.
ThreadContexts* Contexts() {
  thread_local ThreadContexts contexts;
  return contexts.ready ? &contexts : nullptr;
}

Status KernelUnavailable() {
  return Status::CryptoError(
      "crypto kernel unavailable: algorithm fetch or context allocation "
      "failed");
}

bool FinishDigest(EVP_MD_CTX* ctx, Sha256Digest& out) {
  unsigned int len = 0;
  return EVP_DigestFinal_ex(ctx, out.data(), &len) == 1 && len == out.size();
}

Status PrefixedSha256(const EVP_MD_CTX* prefix, EVP_MD_CTX* work, BytesView x,
                      Sha256Digest& out) {
  if (EVP_MD_CTX_copy_ex(work, prefix) != 1 ||
      EVP_DigestUpdate(work, x.data(), x.size()) != 1 ||
      !FinishDigest(work, out)) {
    return Status::CryptoError("chain SHA-256 failed");
  }
  return Status::OK();
}

/// OpenSSL takes lengths as int, so the data and any associated data must
/// fit one.
Status CheckAesInputs(BytesView key, BytesView iv, size_t iv_size,
                      size_t data_size, size_t aad_size = 0) {
  if (key.size() != kAes256KeySize) {
    return Status::InvalidArgument("AES-256 key must be 32 bytes");
  }
  if (iv.size() != iv_size) {
    return Status::InvalidArgument("AES IV or nonce has the wrong size");
  }
  if (data_size > static_cast<size_t>(INT_MAX) ||
      aad_size > static_cast<size_t>(INT_MAX)) {
    return Status::InvalidArgument("AES input too long");
  }
  return Status::OK();
}

}  // namespace

Status Sha256(BytesView a, BytesView b, Sha256Digest& out) {
  ThreadContexts* t = Contexts();
  if (t == nullptr) return KernelUnavailable();
  EVP_MD_CTX* ctx = t->digest.get();
  if (EVP_DigestInit_ex2(ctx, Fetched().sha256, nullptr) != 1 ||
      EVP_DigestUpdate(ctx, a.data(), a.size()) != 1 ||
      EVP_DigestUpdate(ctx, b.data(), b.size()) != 1 ||
      !FinishDigest(ctx, out)) {
    return Status::CryptoError("SHA-256 failed");
  }
  return Status::OK();
}

Status ChainStep(BytesView x, Sha256Digest& out) {
  ThreadContexts* t = Contexts();
  if (t == nullptr) return KernelUnavailable();
  return PrefixedSha256(t->step_prefix.get(), t->digest.get(), x, out);
}

Status ChainTag(BytesView x, Sha256Digest& out) {
  ThreadContexts* t = Contexts();
  if (t == nullptr) return KernelUnavailable();
  return PrefixedSha256(t->tag_prefix.get(), t->digest.get(), x, out);
}

Status HmacSha256(BytesView key, BytesView data, Sha256Digest& out) {
  ThreadContexts* t = Contexts();
  if (t == nullptr) return KernelUnavailable();
  // EVP_MAC_init keeps the previous key when handed a null one, so an
  // empty key points at a dummy byte instead.
  static const uint8_t kNoKey = 0;
  const uint8_t* key_bytes = key.empty() ? &kNoKey : key.data();
  size_t len = 0;
  if (EVP_MAC_init(t->hmac.get(), key_bytes, key.size(), nullptr) != 1 ||
      EVP_MAC_update(t->hmac.get(), data.data(), data.size()) != 1 ||
      EVP_MAC_final(t->hmac.get(), out.data(), &len, out.size()) != 1 ||
      len != out.size()) {
    return Status::CryptoError("HMAC-SHA256 failed");
  }
  return Status::OK();
}

Status Aes256Ctr(BytesView key, BytesView iv, BytesView in, uint8_t* out) {
  SSE_RETURN_IF_ERROR(CheckAesInputs(key, iv, kAesCtrIvSize, in.size()));
  ThreadContexts* t = Contexts();
  if (t == nullptr) return KernelUnavailable();
  EVP_CIPHER_CTX* ctx = t->ctr.get();
  int len = 0;
  if (EVP_EncryptInit_ex2(ctx, nullptr, key.data(), iv.data(), nullptr) !=
      1) {
    return Status::CryptoError("AES-256-CTR init failed");
  }
  if (!in.empty() &&
      (EVP_EncryptUpdate(ctx, out, &len, in.data(),
                         static_cast<int>(in.size())) != 1 ||
       static_cast<size_t>(len) != in.size())) {
    return Status::CryptoError("AES-256-CTR update failed");
  }
  return Status::OK();
}

Status Aes256GcmSeal(BytesView key, BytesView nonce, BytesView aad,
                     BytesView plaintext, uint8_t* ct_out, uint8_t* tag_out) {
  SSE_RETURN_IF_ERROR(CheckAesInputs(key, nonce, kAesGcmNonceSize,
                                     plaintext.size(), aad.size()));
  ThreadContexts* t = Contexts();
  if (t == nullptr) return KernelUnavailable();
  EVP_CIPHER_CTX* ctx = t->gcm.get();
  int len = 0;
  if (EVP_EncryptInit_ex2(ctx, nullptr, key.data(), nonce.data(), nullptr) !=
      1) {
    return Status::CryptoError("GCM EncryptInit failed");
  }
  if (!aad.empty() &&
      EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                        static_cast<int>(aad.size())) != 1) {
    return Status::CryptoError("GCM AAD update failed");
  }
  if (!plaintext.empty() &&
      EVP_EncryptUpdate(ctx, ct_out, &len, plaintext.data(),
                        static_cast<int>(plaintext.size())) != 1) {
    return Status::CryptoError("GCM EncryptUpdate failed");
  }
  if (EVP_EncryptFinal_ex(ctx, ct_out + plaintext.size(), &len) != 1) {
    return Status::CryptoError("GCM EncryptFinal failed");
  }
  if (EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_GET_TAG, kAesGcmTagSize,
                          tag_out) != 1) {
    return Status::CryptoError("GCM get tag failed");
  }
  return Status::OK();
}

Status Aes256GcmOpen(BytesView key, BytesView nonce, BytesView aad,
                     BytesView ciphertext, BytesView tag, uint8_t* pt_out) {
  SSE_RETURN_IF_ERROR(CheckAesInputs(key, nonce, kAesGcmNonceSize,
                                     ciphertext.size(), aad.size()));
  if (tag.size() != kAesGcmTagSize) {
    return Status::InvalidArgument("GCM tag must be 16 bytes");
  }
  ThreadContexts* t = Contexts();
  if (t == nullptr) return KernelUnavailable();
  EVP_CIPHER_CTX* ctx = t->gcm.get();
  int len = 0;
  if (EVP_DecryptInit_ex2(ctx, nullptr, key.data(), nonce.data(), nullptr) !=
      1) {
    return Status::CryptoError("GCM DecryptInit failed");
  }
  if (!aad.empty() &&
      EVP_DecryptUpdate(ctx, nullptr, &len, aad.data(),
                        static_cast<int>(aad.size())) != 1) {
    return Status::CryptoError("GCM AAD update failed");
  }
  if (!ciphertext.empty() &&
      EVP_DecryptUpdate(ctx, pt_out, &len, ciphertext.data(),
                        static_cast<int>(ciphertext.size())) != 1) {
    return Status::CryptoError("GCM DecryptUpdate failed");
  }
  std::array<uint8_t, kAesGcmTagSize> expected_tag;
  std::copy(tag.begin(), tag.end(), expected_tag.begin());
  if (EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_SET_TAG, kAesGcmTagSize,
                          expected_tag.data()) != 1) {
    return Status::CryptoError("GCM set tag failed");
  }
  if (EVP_DecryptFinal_ex(ctx, pt_out + ciphertext.size(), &len) != 1) {
    return Status::CryptoError("AEAD authentication failed");
  }
  return Status::OK();
}

}  // namespace sse::crypto::kernel
