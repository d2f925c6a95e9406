#ifndef SSE_BASELINES_SEARCH_REPLY_H_
#define SSE_BASELINES_SEARCH_REPLY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sse/core/types.h"
#include "sse/core/wire_common.h"
#include "sse/net/wire.h"

namespace sse::baselines {

/// The one-round search reply every baseline sends under its own type
/// constant: the matching ids, then the stored documents among them.
template <uint16_t kMsgType>
struct SearchReply {
  std::vector<uint64_t> ids;
  std::vector<core::WireDocument> documents;

  SSE_WIRE_MESSAGE(SearchReply, kMsgType, &SearchReply::ids,
                   &SearchReply::documents)
};

/// Client side: decodes a SearchReply<kMsgType> and decrypts its documents.
template <uint16_t kMsgType>
Result<core::SearchOutcome> OpenSearchReply(const net::Message& msg,
                                            const core::DataCipher& data) {
  SearchReply<kMsgType> reply;
  SSE_ASSIGN_OR_RETURN(reply, SearchReply<kMsgType>::FromMessage(msg));
  core::SearchOutcome outcome;
  outcome.ids = std::move(reply.ids);
  SSE_RETURN_IF_ERROR(data.OpenAll(reply.documents, outcome));
  return outcome;
}

}  // namespace sse::baselines

#endif  // SSE_BASELINES_SEARCH_REPLY_H_
