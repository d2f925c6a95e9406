// Experiment E-crypto — microbenchmarks of every primitive the schemes are
// built from, at production parameters. These anchor the protocol-level
// numbers: e.g. a Scheme 1 search costs ~1 ElGamal decryption client-side
// plus one tree lookup and one PRG expansion server-side.

#include <benchmark/benchmark.h>

#include <optional>
#include <random>

#include "sse/crypto/aead.h"
#include "sse/crypto/elgamal.h"
#include "sse/crypto/hash_chain.h"
#include "sse/crypto/hkdf.h"
#include "sse/crypto/prf.h"
#include "sse/crypto/prg.h"
#include "sse/crypto/stream_cipher.h"
#include "sse/index/posting.h"
#include "sse/util/random.h"

namespace sse::crypto {
namespace {

void BM_PrfEval(benchmark::State& state) {
  Prf prf = Prf::Create(Bytes(32, 1)).value();
  Bytes input(static_cast<size_t>(state.range(0)), 0x61);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prf.Eval(input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrfEval)->Arg(16)->Arg(64)->Arg(256);

void BM_HmacSha256(benchmark::State& state) {
  // A 40-byte message: the size of a labeled PRF input or an HKDF block.
  Bytes key(32, 11);
  Bytes message(40, 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, message));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_PrgExpand(benchmark::State& state) {
  Bytes seed(32, 2);
  const size_t len = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrgExpand(seed, len));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(len));
}
// Mask sizes for bitmaps of 2^13..2^20 documents.
BENCHMARK(BM_PrgExpand)->Arg(1024)->Arg(8192)->Arg(131072);

void BM_AeadSeal(benchmark::State& state) {
  DeterministicRandom rng(1);
  Aead aead = Aead::Create(Bytes(32, 3)).value();
  Bytes doc(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead.Seal(doc, {}, rng));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(256)->Arg(4096)->Arg(65536);

void BM_StreamCipherEncrypt(benchmark::State& state) {
  DeterministicRandom rng(2);
  StreamCipher cipher = StreamCipher::Create(Bytes(32, 4)).value();
  Bytes segment(static_cast<size_t>(state.range(0)), 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.Encrypt(segment, rng));
  }
}
BENCHMARK(BM_StreamCipherEncrypt)->Arg(64)->Arg(1024);

void BM_ElGamalEncrypt(benchmark::State& state) {
  DeterministicRandom rng(3);
  const auto group = static_cast<ElGamalGroupId>(state.range(0));
  ElGamal eg = ElGamal::Generate(group, rng).value();
  Bytes nonce(32, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eg.Encrypt(nonce, rng));
  }
}
BENCHMARK(BM_ElGamalEncrypt)
    ->Arg(static_cast<int>(ElGamalGroupId::kToy512))
    ->Arg(static_cast<int>(ElGamalGroupId::kModp1536))
    ->Arg(static_cast<int>(ElGamalGroupId::kModp2048));

void BM_ElGamalDecrypt(benchmark::State& state) {
  DeterministicRandom rng(4);
  const auto group = static_cast<ElGamalGroupId>(state.range(0));
  ElGamal eg = ElGamal::Generate(group, rng).value();
  Bytes ct = eg.Encrypt(Bytes(32, 6), rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eg.Decrypt(ct));
  }
}
BENCHMARK(BM_ElGamalDecrypt)
    ->Arg(static_cast<int>(ElGamalGroupId::kToy512))
    ->Arg(static_cast<int>(ElGamalGroupId::kModp1536))
    ->Arg(static_cast<int>(ElGamalGroupId::kModp2048));

void BM_ChainStep(benchmark::State& state) {
  Sha256Digest element;
  element.fill(7);
  for (auto _ : state) {
    element = HashChain::Step(element).value();
    benchmark::DoNotOptimize(element);
  }
}
BENCHMARK(BM_ChainStep);

void BM_ChainCursorKeyAt(benchmark::State& state) {
  // Client-side key derivation at the default chain length, over the
  // counter orders the schemes ask for: ascending by one (Scheme 3, ctr+1
  // per update of a keyword) or by random gaps of 1..20 (Scheme 2's global
  // counter, which rises after every search). When the counters run past
  // the chain a fresh cursor starts from the seed, so the first walk of
  // l - 1 steps is part of the amortized cost.
  const uint32_t l = 4096;
  const bool gaps = state.range(0) != 0;
  std::mt19937 gen(1);
  std::uniform_int_distribution<uint32_t> gap(1, 20);
  std::optional<ChainCursor> cursor;
  uint32_t ctr = l;
  uint64_t steps = 0;
  uint64_t pebbles = 0;
  for (auto _ : state) {
    ctr += gaps ? gap(gen) : 1;
    if (ctr > l) {
      if (cursor.has_value()) steps += cursor->steps();
      cursor = ChainCursor::Create(Bytes(32, 10), l).value();
      ctr = gaps ? gap(gen) : 1;
    }
    benchmark::DoNotOptimize(cursor->KeyAt(ctr));
    pebbles += cursor->pebble_count();
  }
  if (cursor.has_value()) steps += cursor->steps();
  const double calls = static_cast<double>(state.iterations());
  state.counters["steps_per_call"] = static_cast<double>(steps) / calls;
  state.counters["pebbles"] = static_cast<double>(pebbles) / calls;
}
BENCHMARK(BM_ChainCursorKeyAt)->ArgName("gaps")->Arg(0)->Arg(1);

void BM_ChainWalk(benchmark::State& state) {
  // Server-side: walk `range` steps to find a tag (Fig. 4 inner loop).
  HashChain chain = HashChain::Create(Bytes(32, 8), 1 << 16).value();
  const uint32_t steps = static_cast<uint32_t>(state.range(0));
  Bytes start = chain.ElementAt(0).value();
  Bytes target_tag =
      ToBytes(HashChain::Tag(chain.ElementAt(steps).value()).value());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HashChain::WalkForwardToTag(start, target_tag, steps + 1));
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_ChainWalk)->Arg(16)->Arg(256)->Arg(4096);

void BM_HkdfDerive(benchmark::State& state) {
  Bytes ikm(32, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HkdfSha256(ikm, {}, "bench", 64));
  }
}
BENCHMARK(BM_HkdfDerive);

void BM_SegmentOpen(benchmark::State& state) {
  // The server's per-entry cost on a search: derive the segment cipher
  // from the chain key (HKDF), check the MAC and decrypt a one-id segment.
  DeterministicRandom rng(12);
  Bytes key(32, 13);
  Bytes ciphertext = StreamCipher::Create(key)
                         .value()
                         .Encrypt(index::EncodeIdList({42}).value(), rng)
                         .value();
  for (auto _ : state) {
    Result<StreamCipher> cipher = StreamCipher::Create(key);
    benchmark::DoNotOptimize(cipher->Decrypt(ciphertext));
  }
}
BENCHMARK(BM_SegmentOpen);

}  // namespace
}  // namespace sse::crypto

BENCHMARK_MAIN();
