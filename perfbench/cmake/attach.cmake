# Injected into the program's top-level CMake project through
# CMAKE_PROJECT_crkhacc_INCLUDE (see perfbench/run.py). The driver target
# is defined at the END of the top-level directory, so it inherits exactly
# the program's compile options (-ffp-contract=off, the SIMD probe's
# -mavx2/-mfma and CRKHACC_SIMD_* definitions, the Release flags) and
# links the library targets as the program builds them. A deferred call
# expands its arguments when it runs, so the path is baked in now.
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/driver.cmake]])")
