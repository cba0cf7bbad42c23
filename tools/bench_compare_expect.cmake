# Runs bench_compare on two report trees and checks its exit status:
#   cmake -DBIN=<bench_compare> -DBASE=<dir> -DCAND=<dir> [-DTOL=<frac>]
#         -DEXPECT=<status> -P bench_compare_expect.cmake
set(args --baseline=${BASE} --candidate=${CAND})
if(DEFINED TOL)
  list(APPEND args --tol=${TOL})
endif()
execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE status)
if(NOT status EQUAL EXPECT)
  message(FATAL_ERROR "bench_compare ${args} exited ${status}, want ${EXPECT}")
endif()
