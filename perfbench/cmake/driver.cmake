# Benchmark driver target (included from cmake/attach.cmake).
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}/..")
add_executable(perfbench_driver
  ${PERFBENCH_DIR}/src/campaign.cpp
  ${PERFBENCH_DIR}/src/main.cpp
  ${PERFBENCH_DIR}/src/workloads.cpp
)
target_link_libraries(perfbench_driver PRIVATE crkhacc_core)
# The clustered workload reuses the two-Plummer-sphere generator that the
# load-balance tests and bench/fig4_scaling share (header-only, read-only).
target_include_directories(perfbench_driver PRIVATE
  ${PERFBENCH_DIR}/src ${CMAKE_SOURCE_DIR}/tests)
set_target_properties(perfbench_driver PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
# The build type goes into the record's host descriptor.
target_compile_definitions(perfbench_driver PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
