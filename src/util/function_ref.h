// A non-owning reference to a callable: two words, never allocates, unlike
// a std::function built from a lambda whose captures exceed its small
// buffer. The referenced callable must outlive every call made through the
// reference, so pass one down a call stack and never store it.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace odn::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& callable) noexcept  // NOLINT: implicit, like std::function
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(callable)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::add_pointer_t<F>>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace odn::util
