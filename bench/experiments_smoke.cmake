# bench_experiments_smoke: regenerates a copy of EXPERIMENTS.md twice at the
# scale the test's environment sets, and checks that the run succeeds, that
# it rewrote the committed blocks (their scale line differs) and left none
# empty, and that the second run gives the same bytes.
#
#   cmake -DGENERATOR=<bench_experiments> -DSOURCE=<EXPERIMENTS.md>
#         -DCOPY=<path of the copy> -P experiments_smoke.cmake

configure_file(${SOURCE} ${COPY} COPYONLY)
file(READ ${SOURCE} committed)

foreach(run 1 2)
  execute_process(COMMAND ${GENERATOR} ${COPY} RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "run ${run} of ${GENERATOR} exited with ${status}")
  endif()
  file(READ ${COPY} text_${run})
endforeach()

if(text_1 STREQUAL committed)
  message(FATAL_ERROR "the generator left ${COPY} as committed")
endif()
string(FIND "${text_1}" "-->\n<!-- end generated -->" empty)
if(NOT empty EQUAL -1)
  message(FATAL_ERROR "a generated block of ${COPY} is empty")
endif()
if(NOT text_1 STREQUAL text_2)
  message(FATAL_ERROR "two runs of the generator wrote different bytes")
endif()
