#include "sse/baselines/cgko_sse1.h"

#include <algorithm>

#include "sse/crypto/stream_cipher.h"
#include "sse/net/wire.h"
#include "sse/util/serde.h"

namespace sse::baselines {

namespace {

constexpr uint32_t kEndOfList = 0xffffffffu;
constexpr size_t kNodeKeySize = 32;

/// Plaintext of one list node: doc id ‖ next key ‖ next addr.
Bytes EncodeNode(uint64_t doc_id, const Bytes& next_key, uint32_t next_addr) {
  BufferWriter w;
  w.PutU64(doc_id);
  w.PutRaw(next_key);
  w.PutU32(next_addr);
  return w.TakeData();
}

struct Node {
  uint64_t doc_id = 0;
  Bytes next_key;
  uint32_t next_addr = kEndOfList;
};

Result<Node> DecodeNode(BytesView plain) {
  BufferReader r(plain);
  Node node;
  SSE_ASSIGN_OR_RETURN(node.doc_id, r.GetU64());
  SSE_ASSIGN_OR_RETURN(node.next_key, r.GetRaw(kNodeKeySize));
  SSE_ASSIGN_OR_RETURN(node.next_addr, r.GetU32());
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return node;
}

/// head entry plaintext: addr(4) ‖ key(32); masked by XOR with PRF(k2, w).
constexpr size_t kHeadSize = 4 + kNodeKeySize;

}  // namespace

// ---------------------------------------------------------------- server --

Result<net::Message> CgkoServer::Handle(const net::Message& request) {
  switch (request.type) {
    case kMsgCgkoBuild:
      return HandleBuild(request);
    case kMsgCgkoSearch:
      return HandleSearch(request);
    default:
      return Status::ProtocolError("cgko server: unexpected message " +
                                   net::MessageTypeName(request.type));
  }
}

Result<net::Message> CgkoServer::HandleBuild(const net::Message& msg) {
  CgkoBuild req;
  SSE_ASSIGN_OR_RETURN(req, CgkoBuild::FromMessage(msg));
  index::BTreeMap<Bytes> table;
  for (CgkoTableEntry& entry : req.table) {
    if (entry.masked_head.size() != kHeadSize) {
      return Status::ProtocolError("table entry has wrong size");
    }
    table.Put(entry.token, std::move(entry.masked_head));
  }

  index_bytes_uploaded_ += msg.payload.size();
  state_.array = std::move(req.array);
  state_.table = std::move(table);
  state_.docs.Put(std::move(req.documents));
  return CgkoBuildAck{state_.array.size()}.ToMessage();
}

Result<net::Message> CgkoServer::HandleSearch(const net::Message& msg) {
  CgkoSearch req;
  SSE_ASSIGN_OR_RETURN(req, CgkoSearch::FromMessage(msg));
  if (req.mask.size() != kHeadSize) {
    return Status::ProtocolError("trapdoor mask has wrong size");
  }

  std::vector<uint64_t> ids;
  const Bytes* masked_head = state_.table.Get(req.token);
  if (masked_head != nullptr) {
    // Unmask the list head.
    Bytes head = *masked_head;
    SSE_RETURN_IF_ERROR(XorInPlace(head, req.mask));
    BufferReader hr(head);
    uint32_t addr = 0;
    SSE_ASSIGN_OR_RETURN(addr, hr.GetU32());
    Bytes key;
    SSE_ASSIGN_OR_RETURN(key, hr.GetRaw(kNodeKeySize));

    // Walk the encrypted linked list.
    while (addr != kEndOfList) {
      if (addr >= state_.array.size()) {
        return Status::Corruption("list address out of range");
      }
      Result<crypto::StreamCipher> cipher = crypto::StreamCipher::Create(key);
      if (!cipher.ok()) return cipher.status();
      Bytes plain;
      SSE_ASSIGN_OR_RETURN(plain, cipher->Decrypt(state_.array[addr]));
      Node node;
      SSE_ASSIGN_OR_RETURN(node, DecodeNode(plain));
      ids.push_back(node.doc_id);
      ++nodes_walked_;
      addr = node.next_addr;
      key = node.next_key;
    }
  }
  std::sort(ids.begin(), ids.end());

  return SearchReply<kMsgCgkoSearchResult>{ids, state_.docs.Fetch(ids)}
      .ToMessage();
}

Result<Bytes> CgkoServer::SerializeState() const {
  return net::wire::Serialize(state_);
}

Status CgkoServer::RestoreState(BytesView data) {
  SSE_ASSIGN_OR_RETURN(state_, net::wire::Parse<State>(data));
  return Status::OK();
}

// ---------------------------------------------------------------- client --

CgkoClient::CgkoClient(crypto::Prf prf, core::DataCipher data,
                       net::Channel* channel, RandomSource* rng)
    : prf_(std::move(prf)),
      data_(std::move(data)),
      channel_(channel),
      rng_(rng) {}

Result<std::unique_ptr<CgkoClient>> CgkoClient::Create(
    const crypto::MasterKey& key, net::Channel* channel, RandomSource* rng) {
  if (channel == nullptr || rng == nullptr) {
    return Status::InvalidArgument("channel and rng must be non-null");
  }
  Result<crypto::Prf> prf = crypto::Prf::Create(key.keyword_key());
  if (!prf.ok()) return prf.status();
  Result<core::DataCipher> data = core::DataCipher::Create(key);
  if (!data.ok()) return data.status();
  return std::unique_ptr<CgkoClient>(new CgkoClient(
      std::move(prf).value(), std::move(data).value(), channel, rng));
}

Result<Bytes> CgkoClient::TableToken(std::string_view keyword) const {
  return prf_.EvalLabeled("cgko.t1", StringToBytes(keyword));
}

Result<Bytes> CgkoClient::TableMask(std::string_view keyword) const {
  Bytes full;
  SSE_ASSIGN_OR_RETURN(full,
                       prf_.EvalLabeled("cgko.t2", StringToBytes(keyword)));
  // Need kHeadSize = 36 bytes of mask; extend via a second labeled call.
  Bytes more;
  SSE_ASSIGN_OR_RETURN(more,
                       prf_.EvalLabeled("cgko.t2x", StringToBytes(keyword)));
  full.insert(full.end(), more.begin(), more.begin() + (kHeadSize - 32));
  return full;
}

Status CgkoClient::Store(const std::vector<core::Document>& docs) {
  SSE_RETURN_IF_ERROR(used_ids_.CheckFresh(docs));
  // Update the client-side plaintext inverted index.
  for (const core::Document& doc : docs) {
    for (const std::string& kw : doc.keywords) {
      postings_[kw].insert(doc.id);
    }
  }

  // Full rebuild: count nodes, place them at random positions in A.
  size_t total_nodes = 0;
  for (const auto& [kw, ids] : postings_) total_nodes += ids.size();

  std::vector<uint32_t> slots(total_nodes);
  for (size_t i = 0; i < total_nodes; ++i) slots[i] = static_cast<uint32_t>(i);
  // Fisher-Yates with the injected RNG (the random permutation π of SSE-1).
  for (size_t i = total_nodes; i > 1; --i) {
    uint64_t j = 0;
    SSE_ASSIGN_OR_RETURN(j, rng_->UniformU64(i));
    std::swap(slots[i - 1], slots[j]);
  }

  CgkoBuild build;
  build.array.resize(total_nodes);
  size_t slot_cursor = 0;
  for (const auto& [kw, ids] : postings_) {
    // Build this keyword's chain back-to-front.
    std::vector<uint64_t> id_vec(ids.begin(), ids.end());
    Bytes next_key(kNodeKeySize, 0);
    uint32_t next_addr = kEndOfList;
    std::vector<uint32_t> my_slots(id_vec.size());
    for (size_t j = 0; j < id_vec.size(); ++j) {
      my_slots[j] = slots[slot_cursor++];
    }
    for (size_t j = id_vec.size(); j-- > 0;) {
      Bytes node_key;
      SSE_ASSIGN_OR_RETURN(node_key, rng_->Generate(kNodeKeySize));
      Bytes plain = EncodeNode(id_vec[j], next_key, next_addr);
      Result<crypto::StreamCipher> cipher =
          crypto::StreamCipher::Create(node_key);
      if (!cipher.ok()) return cipher.status();
      Bytes ct;
      SSE_ASSIGN_OR_RETURN(ct, cipher->Encrypt(plain, *rng_));
      build.array[my_slots[j]] = std::move(ct);
      next_key = node_key;
      next_addr = my_slots[j];
    }
    // Table entry: (head addr ‖ head key) ⊕ PRF(k2, w). After the loop
    // next_addr/next_key point at the first node of the chain.
    BufferWriter head_w;
    head_w.PutU32(next_addr);
    head_w.PutRaw(next_key);
    Bytes head = head_w.TakeData();
    Bytes mask;
    SSE_ASSIGN_OR_RETURN(mask, TableMask(kw));
    SSE_RETURN_IF_ERROR(XorInPlace(head, mask));
    CgkoTableEntry entry;
    SSE_ASSIGN_OR_RETURN(entry.token, TableToken(kw));
    entry.masked_head = std::move(head);
    build.table.push_back(std::move(entry));
  }
  SSE_ASSIGN_OR_RETURN(build.documents, data_.SealAll(docs, *rng_));

  net::Message ack;
  SSE_ASSIGN_OR_RETURN(ack, channel_->Call(build.ToMessage()));
  SSE_RETURN_IF_ERROR(CgkoBuildAck::FromMessage(ack).status());
  used_ids_.Add(docs);
  return Status::OK();
}

Result<core::SearchOutcome> CgkoClient::Search(std::string_view keyword) {
  CgkoSearch req;
  SSE_ASSIGN_OR_RETURN(req.token, TableToken(keyword));
  SSE_ASSIGN_OR_RETURN(req.mask, TableMask(keyword));
  net::Message reply;
  SSE_ASSIGN_OR_RETURN(reply, channel_->Call(req.ToMessage()));
  return OpenSearchReply<kMsgCgkoSearchResult>(reply, data_);
}

}  // namespace sse::baselines
