module Paths = Nisq_device.Paths
module Topology = Nisq_device.Topology
module Calibration = Nisq_device.Calibration
module Placement = Nisq_solver.Placement

let compile_layout ~decision_paths ~omega ~policy ~budget circuit =
  let problem = Reliability.placement_problem decision_paths ~omega ~policy circuit in
  let calib = Paths.calibration decision_paths in
  let forbid slot = not (Calibration.qubit_live calib slot) in
  let solution = Placement.solve ~budget ~forbid problem in
  let num_hw = Topology.num_qubits calib.Calibration.topology in
  ( Layout.of_array ~num_hw solution.Placement.assignment,
    solution.Placement.stats,
    solution.Placement.objective )
