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

/// The one codec for the protocol's message payloads and the persisted
/// states (docs/PROTOCOL.md §4-§5). A message states its layout once, as
/// its type constant and the list of its fields in wire order;
/// ToMessage() and FromMessage() are built from that list:
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
///   ordered container         varint count ‖ (key value)* in key order:
///                             std::map, std::set (keys only), and any
///                             map type with key_type, mapped_type,
///                             ForEach and Put (index::BTreeMap)
///   struct with kFields       its fields in order, no framing of its own
/// Decoding checks the type tag, bounds every list or container count by
/// the bytes left before sizing anything by it, refuses a container key
/// that is not strictly greater than the one before (CORRUPTION), and
/// refuses trailing bytes. A state that is not a message uses
/// Serialize/Parse, the same codec without a type tag.
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
concept Ordered = requires { typename T::key_type; };
template <typename T>
concept OrderedMap = Ordered<T> && requires { typename T::mapped_type; };

/// Calls fn(key) for each key of a set, fn(key, value) for each entry of a
/// map, in key order.
template <typename T, typename Fn>
void ForEachEntry(const T& container, Fn fn) {
  if constexpr (!OrderedMap<T>) {
    for (const auto& key : container) fn(key);
  } else if constexpr (requires { container.begin(); }) {
    for (const auto& [key, value] : container) fn(key, value);
  } else {
    container.ForEach([&](const auto& key, const auto& value) {
      fn(key, value);
      return true;
    });
  }
}

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
                       std::is_same_v<T, Bytes> || IsVector<T>::value ||
                       Ordered<T>) {
    return 1;
  } else {
    return std::apply(
        [](auto... field) { return (size_t{0} + ... + FieldMinSize(field)); },
        T::kFields);
  }
}

/// Reads a list or container count, bounded by the bytes left: each of
/// the `count` elements takes at least `min_element` bytes.
inline Status GetCount(BufferReader& r, size_t min_element, uint64_t& count) {
  SSE_ASSIGN_OR_RETURN(count, r.GetVarint());
  if (count > r.remaining() / min_element) {
    return Status::Corruption("count " + std::to_string(count) +
                              " exceeds the " + std::to_string(r.remaining()) +
                              " bytes left");
  }
  return Status::OK();
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
  } else if constexpr (internal::Ordered<T>) {
    w.PutVarint(value.size());
    internal::ForEachEntry(
        value, [&](const auto&... entry) { (Put(w, entry), ...); });
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
    SSE_RETURN_IF_ERROR(internal::GetCount(r, kMinElement, count));
    value.resize(static_cast<size_t>(count));
    for (auto& element : value) SSE_RETURN_IF_ERROR(Get(r, element));
  } else if constexpr (internal::Ordered<T>) {
    using Key = typename T::key_type;
    size_t min_entry = internal::MinSize<Key>();
    if constexpr (internal::OrderedMap<T>) {
      min_entry += internal::MinSize<typename T::mapped_type>();
    }
    uint64_t count = 0;
    SSE_RETURN_IF_ERROR(internal::GetCount(r, min_entry, count));
    value = T();
    Key previous;
    for (uint64_t i = 0; i < count; ++i) {
      Key key;
      SSE_RETURN_IF_ERROR(Get(r, key));
      if (i > 0 && !(previous < key)) {
        return Status::Corruption(
            "keys out of order: each must be greater than the one before");
      }
      if constexpr (!internal::OrderedMap<T>) {
        value.emplace_hint(value.end(), key);
      } else {
        typename T::mapped_type mapped;
        SSE_RETURN_IF_ERROR(Get(r, mapped));
        if constexpr (requires { value.Put(key, mapped); }) {
          value.Put(key, std::move(mapped));
        } else {
          value.emplace_hint(value.end(), key, std::move(mapped));
        }
      }
      previous = std::move(key);
    }
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

/// `value`'s fields in order, as a byte string of their own.
template <typename T>
Bytes Serialize(const T& value) {
  BufferWriter w;
  Put(w, value);
  return w.TakeData();
}

/// Parses bytes that hold exactly one T.
template <typename T>
Result<T> Parse(BytesView data) {
  BufferReader r(data);
  T out;
  SSE_RETURN_IF_ERROR(Get(r, out));
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

/// The message `m` as (M::kType, its fields in order).
template <typename M>
Message Encode(const M& m) {
  return Message{M::kType, Serialize(m)};
}

/// Parses a message of type M::kType whose payload holds exactly M; the
/// protocol's one message type check.
template <typename M>
Result<M> Decode(const Message& msg) {
  if (msg.type != M::kType) {
    return Status::ProtocolError("expected message type " +
                                 MessageTypeName(M::kType) + ", got " +
                                 MessageTypeName(msg.type));
  }
  return Parse<M>(msg.payload);
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
