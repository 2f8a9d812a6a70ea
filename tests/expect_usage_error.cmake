# A usage-error test: runs the command that follows this script's path on
# the command line, and passes only when it exits 2 and prints an "error:"
# line naming FLAG on stderr. WILL_FAIL is not enough: it also passes on a
# crash, and a VCDN_CHECK abort exits 134.
#
#   cmake -DFLAG=--days -P expect_usage_error.cmake <program> [args...]

math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(NOT DEFINED first AND CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR first "${i} + 2")
  endif()
endforeach()
foreach(i RANGE ${first} ${last})
  list(APPEND command "${CMAKE_ARGV${i}}")
endforeach()
list(JOIN command " " shown)

execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${shown}\nexited with '${status}', want 2 (a usage error); stderr:\n"
                      "${stderr}")
endif()
if(NOT stderr MATCHES "(^|\n)error: [^\n]*'${FLAG}'")
  message(FATAL_ERROR "${shown}\nprinted no \"error:\" line naming '${FLAG}'; stderr:\n"
                      "${stderr}")
endif()
