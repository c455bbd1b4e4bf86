# Runs one binary and compares its stdout with a recorded golden file, byte
# for byte.  Fails on a non-zero exit or on any differing byte, naming the
# first line that differs.  Registered as ctest cases by the root
# CMakeLists.txt; also runnable by hand:
#
#   cmake -DBINARY=build/bench_theorem3 -DGOLDEN=tests/golden/bench_theorem3.txt \
#         -P tests/golden/check_golden.cmake
#
# ARGS (optional) holds the binary's arguments as one space-separated string,
# split like a POSIX shell command line:
#
#   cmake -DBINARY=build/sweep -DARGS=--list -DGOLDEN=tests/golden/sweep_list.txt \
#         -P tests/golden/check_golden.cmake
#
# To re-record after an intended output change, run the binary and write its
# stdout over the golden file.

cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED BINARY OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR
          "usage: cmake -DBINARY=<exe> [-DARGS=<args>] -DGOLDEN=<file> -P check_golden.cmake")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${exit_code}\n${errors}")
endif()

file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

# Walk both texts line by line.  The outputs hold ';' and '[', so they are
# never split into CMake lists.
set(line 1)
while(TRUE)
  string(FIND "${expected}" "\n" expected_end)
  string(FIND "${actual}" "\n" actual_end)
  if(expected_end EQUAL -1)
    set(expected_line "${expected}")
  else()
    string(SUBSTRING "${expected}" 0 ${expected_end} expected_line)
  endif()
  if(actual_end EQUAL -1)
    set(actual_line "${actual}")
  else()
    string(SUBSTRING "${actual}" 0 ${actual_end} actual_line)
  endif()
  if(NOT expected_line STREQUAL actual_line)
    break()
  endif()
  if(expected_end EQUAL -1 OR actual_end EQUAL -1)
    # Same text up to here; one side ends without a newline the other has.
    if(expected_end EQUAL -1)
      set(expected_line "${expected_line}<end of output>")
      set(actual_line "${actual_line}<newline>")
    else()
      set(expected_line "${expected_line}<newline>")
      set(actual_line "${actual_line}<end of output>")
    endif()
    break()
  endif()
  math(EXPR skip "${expected_end} + 1")
  string(SUBSTRING "${expected}" ${skip} -1 expected)
  math(EXPR skip "${actual_end} + 1")
  string(SUBSTRING "${actual}" ${skip} -1 actual)
  math(EXPR line "${line} + 1")
endwhile()
foreach(side expected actual)
  if(${side}_end EQUAL -1 AND "${${side}_line}" STREQUAL "")
    set(${side}_line "<end of output>")
  endif()
endforeach()

message(FATAL_ERROR "${BINARY}: stdout differs from ${GOLDEN} at line ${line}\n"
                    "  expected: ${expected_line}\n"
                    "  actual:   ${actual_line}")
