#ifndef SSE_NET_WIRE_H_
#define SSE_NET_WIRE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sse/net/message.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"
#include "sse/util/serde.h"

/// The one codec for the protocol's message payloads. A message states its
/// layout once, as its type constant and the list of its fields in wire
/// order; ToMessage() and FromMessage() are built from that list:
///
///   struct S2SearchRequest {
///     Bytes token;
///     Bytes chain_element;
///     SSE_WIRE_MESSAGE(S2SearchRequest, kMsgS2SearchRequest,
///                      &S2SearchRequest::token,
///                      &S2SearchRequest::chain_element)
///   };
///
/// A field encodes by its C++ type (docs/PROTOCOL.md §1):
///   bool                      u8, 0 or 1
///   uint16_t / uint32_t       little-endian fixed width
///   uint64_t                  varint, or u64 fixed width when the field
///                             list wraps it in wire::Fixed
///   Bytes                     varint length ‖ bytes
///   std::array<uint8_t, N>    N raw bytes, no length
///   std::vector<T>            varint count ‖ T*
///   struct with kFields       its fields in order, no framing of its own
/// Decoding checks the type tag, bounds every list count by the bytes
/// left before sizing anything by it, and refuses trailing bytes.
namespace sse::net::wire {

/// A uint64_t member that travels as a fixed 8-byte field, not a varint.
template <typename C>
struct Fixed64 {
  uint64_t C::*member;
};

template <typename C>
constexpr Fixed64<C> Fixed(uint64_t C::*member) {
  return {member};
}

/// The protocol's one message type check: PROTOCOL_ERROR unless `msg` is
/// of type `want`.
inline Status CheckType(const Message& msg, uint16_t want) {
  if (msg.type != want) {
    return Status::ProtocolError("expected message type " +
                                 MessageTypeName(want) + ", got " +
                                 MessageTypeName(msg.type));
  }
  return Status::OK();
}

/// Appends `value` in its wire encoding.
template <typename T>
void Put(BufferWriter& w, const T& value);
/// Reads one T in its wire encoding into `value`.
template <typename T>
Status Get(BufferReader& r, T& value);

namespace internal {

template <typename T>
struct IsByteArray : std::false_type {};
template <size_t N>
struct IsByteArray<std::array<uint8_t, N>> : std::true_type {};

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename T>
constexpr size_t MinSize();

template <typename C, typename T>
constexpr size_t FieldMinSize(T C::*) {
  return MinSize<T>();
}
template <typename C>
constexpr size_t FieldMinSize(Fixed64<C>) {
  return 8;
}

/// The fewest bytes a T can encode to; a list of T bounds its count by
/// the bytes left divided by this.
template <typename T>
constexpr size_t MinSize() {
  if constexpr (std::is_same_v<T, uint16_t>) {
    return 2;
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return 4;
  } else if constexpr (IsByteArray<T>::value) {
    return std::tuple_size_v<T>;
  } else if constexpr (std::is_same_v<T, bool> ||
                       std::is_same_v<T, uint64_t> ||
                       std::is_same_v<T, Bytes> || IsVector<T>::value) {
    return 1;
  } else {
    return std::apply(
        [](auto... field) { return (size_t{0} + ... + FieldMinSize(field)); },
        T::kFields);
  }
}

template <typename C, typename T>
void PutField(BufferWriter& w, const C& obj, T C::*member) {
  Put(w, obj.*member);
}
template <typename C>
void PutField(BufferWriter& w, const C& obj, Fixed64<C> field) {
  w.PutU64(obj.*field.member);
}

template <typename C, typename T>
Status GetField(BufferReader& r, C& obj, T C::*member) {
  return Get(r, obj.*member);
}
template <typename C>
Status GetField(BufferReader& r, C& obj, Fixed64<C> field) {
  SSE_ASSIGN_OR_RETURN(obj.*field.member, r.GetU64());
  return Status::OK();
}

}  // namespace internal

template <typename T>
void Put(BufferWriter& w, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    w.PutBool(value);
  } else if constexpr (std::is_same_v<T, uint16_t>) {
    w.PutU16(value);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    w.PutU32(value);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    w.PutVarint(value);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.PutBytes(value);
  } else if constexpr (internal::IsByteArray<T>::value) {
    w.PutRaw(value);
  } else if constexpr (internal::IsVector<T>::value) {
    w.PutVarint(value.size());
    for (const auto& element : value) Put(w, element);
  } else {
    std::apply(
        [&](auto... field) { (internal::PutField(w, value, field), ...); },
        T::kFields);
  }
}

template <typename T>
Status Get(BufferReader& r, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    SSE_ASSIGN_OR_RETURN(value, r.GetBool());
  } else if constexpr (std::is_same_v<T, uint16_t>) {
    SSE_ASSIGN_OR_RETURN(value, r.GetU16());
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    SSE_ASSIGN_OR_RETURN(value, r.GetU32());
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    SSE_ASSIGN_OR_RETURN(value, r.GetVarint());
  } else if constexpr (std::is_same_v<T, Bytes>) {
    SSE_ASSIGN_OR_RETURN(value, r.GetBytes());
  } else if constexpr (internal::IsByteArray<T>::value) {
    return r.GetRawInto(value);
  } else if constexpr (internal::IsVector<T>::value) {
    constexpr size_t kMinElement =
        internal::MinSize<typename T::value_type>();
    static_assert(kMinElement > 0, "a list element encodes to >= 1 byte");
    uint64_t count = 0;
    SSE_ASSIGN_OR_RETURN(count, r.GetVarint());
    if (count > r.remaining() / kMinElement) {
      return Status::Corruption("list count " + std::to_string(count) +
                                " exceeds the " +
                                std::to_string(r.remaining()) + " bytes left");
    }
    value.resize(static_cast<size_t>(count));
    for (auto& element : value) SSE_RETURN_IF_ERROR(Get(r, element));
  } else {
    Status status;
    std::apply(
        [&](auto... field) {
          (void)(... &&
                 (status = internal::GetField(r, value, field)).ok());
        },
        T::kFields);
    return status;
  }
  return Status::OK();
}

/// The message `m` as (M::kType, its fields in order).
template <typename M>
Message Encode(const M& m) {
  BufferWriter w;
  Put(w, m);
  return Message{M::kType, w.TakeData()};
}

/// Parses a message of type M::kType whose payload holds exactly M.
template <typename M>
Result<M> Decode(const Message& msg) {
  SSE_RETURN_IF_ERROR(CheckType(msg, M::kType));
  BufferReader r(msg.payload);
  M out;
  SSE_RETURN_IF_ERROR(Get(r, out));
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

}  // namespace sse::net::wire

/// Declares a message inside its struct: the type constant `kType`, the
/// field list `kFields` (pointers to members, in wire order) and the
/// ToMessage()/FromMessage() pair the codec builds from them.
#define SSE_WIRE_MESSAGE(Type, type_constant, ...)                         \
  static constexpr uint16_t kType = type_constant;                         \
  static constexpr auto kFields = std::tuple{__VA_ARGS__};                 \
  ::sse::net::Message ToMessage() const {                                  \
    return ::sse::net::wire::Encode(*this);                                \
  }                                                                        \
  static ::sse::Result<Type> FromMessage(const ::sse::net::Message& msg) { \
    return ::sse::net::wire::Decode<Type>(msg);                            \
  }

#endif  // SSE_NET_WIRE_H_
