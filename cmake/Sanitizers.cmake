# Sanitizer wiring for the whole tree (src/, tests/, examples/, bench/).
#
# MBD_SANITIZE is a comma-separated list of sanitizers to enable globally:
#   -DMBD_SANITIZE=thread              # TSan: races on Fabric/Mailbox state
#   -DMBD_SANITIZE=address,undefined   # ASan+UBSan: memory + UB, plus the
#                                      # libstdc++ assertions (_GLIBCXX_ASSERTIONS)
#   -DMBD_SANITIZE=leak                # standalone LeakSanitizer
#
# Flags are applied with add_compile_options/add_link_options from the top
# CMakeLists *before* any target is declared, so every object in the build —
# libraries, tests, examples, benches — is instrumented consistently (mixing
# instrumented and uninstrumented TUs produces false negatives under TSan).
#
# Illegal combinations (thread with address/leak) are rejected at configure
# time with the same error the compiler would eventually give, but sooner.

set(MBD_SANITIZE "" CACHE STRING
    "Comma-separated sanitizers to enable: address, undefined, thread, leak")

if(MBD_SANITIZE)
  string(REPLACE "," ";" _mbd_san_list "${MBD_SANITIZE}")
  set(_mbd_san_known address undefined thread leak)
  foreach(_san IN LISTS _mbd_san_list)
    if(NOT _san IN_LIST _mbd_san_known)
      message(FATAL_ERROR
        "MBD_SANITIZE: unknown sanitizer '${_san}' "
        "(expected a comma-separated subset of: address, undefined, thread, leak)")
    endif()
  endforeach()
  if("thread" IN_LIST _mbd_san_list AND
     ("address" IN_LIST _mbd_san_list OR "leak" IN_LIST _mbd_san_list))
    message(FATAL_ERROR
      "MBD_SANITIZE: 'thread' cannot be combined with 'address' or 'leak' "
      "(the runtimes share shadow memory)")
  endif()

  string(REPLACE ";" "," _mbd_san_flag "${_mbd_san_list}")
  message(STATUS "Sanitizers enabled: -fsanitize=${_mbd_san_flag}")

  add_compile_options(
    -fsanitize=${_mbd_san_flag}
    -fno-omit-frame-pointer     # usable stacks in sanitizer reports
  )
  if("undefined" IN_LIST _mbd_san_list)
    # Make every UBSan finding fatal instead of a log line CI would miss.
    add_compile_options(-fno-sanitize-recover=undefined)
  endif()
  if("address" IN_LIST _mbd_san_list OR "undefined" IN_LIST _mbd_san_list)
    # libstdc++ bounds assertions (vector/span operator[], hence
    # Matrix::operator() and Tensor4::at): an index that stays inside one
    # allocation, which ASan cannot see, still aborts.
    add_compile_definitions(_GLIBCXX_ASSERTIONS)
  endif()
  add_link_options(-fsanitize=${_mbd_san_flag})
endif()
