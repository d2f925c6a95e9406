#include "sse/security/game.h"

#include <algorithm>
#include <map>
#include <set>

#include "sse/core/registry.h"
#include "sse/core/scheme1_messages.h"
#include "sse/core/scheme1_server.h"
#include "sse/net/wire.h"
#include "sse/security/stats.h"
#include "sse/util/bitvec.h"

namespace sse::security {

namespace {

/// Concatenated masked-index bytes of a view (the component a curious
/// server would mine first).
Bytes IndexBytes(const View& view) {
  Bytes out;
  for (const View::IndexEntry& entry : view.index) {
    out.insert(out.end(), entry.masked_bitmap.begin(),
               entry.masked_bitmap.end());
  }
  return out;
}

}  // namespace

Result<View> CaptureScheme1View(const History& history,
                                const core::SchemeOptions& options,
                                RandomSource& rng) {
  crypto::MasterKey key{crypto::MasterKey::Generate(rng).value()};
  core::SystemConfig config;
  config.scheme = options;
  config.channel.record_transcript = true;
  core::SseSystem sys;
  SSE_ASSIGN_OR_RETURN(
      sys, core::CreateSystem(core::SystemKind::kScheme1, key, config, &rng));

  SSE_RETURN_IF_ERROR(sys.client->Store(history.documents));
  for (const std::string& query : history.queries) {
    core::SearchOutcome outcome;
    SSE_ASSIGN_OR_RETURN(outcome, sys.client->Search(query));
  }

  View view;
  for (const core::Document& doc : history.documents) view.ids.push_back(doc.id);

  // Index entries and document ciphertexts from the server's state.
  using State = core::Scheme1Server::State;
  Bytes serialized;
  SSE_ASSIGN_OR_RETURN(serialized, sys.server->SerializeState());
  State state;
  SSE_ASSIGN_OR_RETURN(state, net::wire::Parse<State>(serialized));
  state.index.ForEach(
      [&](const Bytes& token, const core::S1IndexEntry& entry) {
        view.index.push_back(
            View::IndexEntry{token, entry.masked_bitmap, entry.enc_nonce});
        return true;
      });
  std::vector<core::WireDocument> stored = state.docs.Fetch(view.ids);
  if (stored.size() != view.ids.size()) {
    return Status::Internal("document missing from captured state");
  }
  for (core::WireDocument& doc : stored) {
    view.encrypted_documents.push_back(std::move(doc.ciphertext));
  }

  // Trapdoors in query order, from the transcript.
  for (const net::Exchange& exchange : sys.channel->transcript()) {
    if (exchange.request.type != core::kMsgS1SearchRequest) continue;
    core::S1SearchRequest req;
    SSE_ASSIGN_OR_RETURN(req,
                         core::S1SearchRequest::FromMessage(exchange.request));
    view.trapdoors.push_back(std::move(req.token));
  }
  return view;
}

Result<View> CaptureLeakyStrawmanView(const History& history,
                                      const core::SchemeOptions& options,
                                      RandomSource& rng) {
  View view;
  std::set<std::string> vocabulary;
  for (const core::Document& doc : history.documents) {
    view.ids.push_back(doc.id);
    // "Encrypted" documents still random here; the strawman's sin is the
    // index.
    Bytes blob;
    SSE_ASSIGN_OR_RETURN(blob, rng.Generate(doc.content.size() + 28));
    view.encrypted_documents.push_back(std::move(blob));
    vocabulary.insert(doc.keywords.begin(), doc.keywords.end());
  }
  std::map<std::string, Bytes> token_of;
  for (const std::string& kw : vocabulary) {
    View::IndexEntry entry;
    SSE_ASSIGN_OR_RETURN(entry.token, rng.Generate(32));
    token_of[kw] = entry.token;
    // THE LEAK: the posting bitmap is stored unmasked.
    BitVec bitmap(options.max_documents);
    for (const core::Document& doc : history.documents) {
      if (std::find(doc.keywords.begin(), doc.keywords.end(), kw) !=
          doc.keywords.end()) {
        bitmap.Set(static_cast<size_t>(doc.id));
      }
    }
    entry.masked_bitmap = bitmap.ToBytes();
    SSE_ASSIGN_OR_RETURN(entry.enc_nonce, rng.Generate(64));
    view.index.push_back(std::move(entry));
  }
  for (const std::string& query : history.queries) {
    auto it = token_of.find(query);
    if (it != token_of.end()) {
      view.trapdoors.push_back(it->second);
    } else {
      Bytes token;
      SSE_ASSIGN_OR_RETURN(token, rng.Generate(32));
      view.trapdoors.push_back(std::move(token));
    }
  }
  return view;
}

std::vector<Distinguisher> BuiltinDistinguishers() {
  std::vector<Distinguisher> out;
  out.push_back({"index-monobit", [](const View& view) {
                   // Unmasked sparse bitmaps are almost all zero; masked
                   // ones hover at 0.5.
                   return MonobitFraction(IndexBytes(view)) < 0.25 ? 1 : 0;
                 }});
  out.push_back({"index-entropy", [](const View& view) {
                   return ShannonEntropyBytes(IndexBytes(view)) < 6.0 ? 1 : 0;
                 }});
  out.push_back({"index-chi-square", [](const View& view) {
                   const Bytes bytes = IndexBytes(view);
                   return ChiSquareBytes(bytes) >
                                  static_cast<double>(bytes.size())
                              ? 1
                              : 0;
                 }});
  out.push_back({"bitmap-popcount-spread", [](const View& view) {
                   // Real masked bitmaps all have ~50% density; plaintext
                   // posting bitmaps vary wildly with keyword popularity.
                   if (view.index.empty()) return 0;
                   double min_frac = 1.0;
                   double max_frac = 0.0;
                   for (const auto& entry : view.index) {
                     const double f = MonobitFraction(entry.masked_bitmap);
                     min_frac = std::min(min_frac, f);
                     max_frac = std::max(max_frac, f);
                   }
                   return (max_frac - min_frac) > 0.2 ? 1 : 0;
                 }});
  out.push_back({"ciphertext-first-bit", [](const View& view) {
                   // Pure noise probe: should stay at zero advantage for
                   // both the real scheme and the strawman.
                   if (view.encrypted_documents.empty()) return 0;
                   return view.encrypted_documents[0][0] & 1;
                 }});
  return out;
}

double GameOutcome::Advantage() const {
  if (trials == 0) return 0.0;
  return 2.0 * static_cast<double>(correct) / trials - 1.0;
}

namespace {

using CaptureFn = Result<View> (*)(const History&, const core::SchemeOptions&,
                                   RandomSource&);

Result<GameOutcome> Play(const History& h0, const History& h1,
                         const core::SchemeOptions& options,
                         const Distinguisher& adversary, int trials,
                         RandomSource& coin_rng, RandomSource& scheme_rng,
                         CaptureFn capture) {
  if (!(ComputeTrace(h0) == ComputeTrace(h1))) {
    return Status::InvalidArgument(
        "the two histories have different traces; the game is only "
        "meaningful over equal-trace pairs");
  }
  GameOutcome outcome;
  for (int t = 0; t < trials; ++t) {
    uint64_t coin = 0;
    SSE_ASSIGN_OR_RETURN(coin, coin_rng.UniformU64(2));
    const int b = static_cast<int>(coin);
    View view;
    SSE_ASSIGN_OR_RETURN(view, capture(b == 0 ? h0 : h1, options, scheme_rng));
    const int guess = adversary.guess(view);
    if (guess == b) ++outcome.correct;
    ++outcome.trials;
  }
  return outcome;
}

}  // namespace

Result<GameOutcome> PlayScheme1Game(const History& h0, const History& h1,
                                    const core::SchemeOptions& options,
                                    const Distinguisher& adversary, int trials,
                                    RandomSource& coin_rng,
                                    RandomSource& scheme_rng) {
  return Play(h0, h1, options, adversary, trials, coin_rng, scheme_rng,
              &CaptureScheme1View);
}

Result<GameOutcome> PlayStrawmanGame(const History& h0, const History& h1,
                                     const core::SchemeOptions& options,
                                     const Distinguisher& adversary,
                                     int trials, RandomSource& coin_rng,
                                     RandomSource& scheme_rng) {
  return Play(h0, h1, options, adversary, trials, coin_rng, scheme_rng,
              &CaptureLeakyStrawmanView);
}

}  // namespace sse::security
