//! Runs every table and figure reproduction in sequence.
fn main() {
    use hurricane_bench::experiments as e;
    e::table1();
    e::fig5();
    e::fig6();
    e::fig7_8();
    e::fig9();
    e::fig10();
    e::fig11();
    e::storage_scaling();
    e::utilization_table();
    e::table2();
    e::fig12();
    e::table3();
    e::table4();
    e::ablation_clone_interval();
    e::ablation_instance_cap();
}
