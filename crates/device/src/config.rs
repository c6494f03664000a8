//! Device geometry and its mapping onto the electrostatics grid.
//!
//! The paper's device: a 15 nm armchair GNR channel, double-gate through
//! 1.5 nm SiO₂ (`ε_r = 3.9`), metal source/drain blocks at the channel ends
//! acting as Schottky contacts. Everything is rectilinear, so the geometry
//! maps exactly onto the structured Poisson grid.

use crate::error::DeviceError;
use gnr_lattice::AGnr;
use gnr_num::consts::EPS_R_SIO2;
use gnr_poisson::{Grid3, PoissonProblem, Region};

/// Complete description of one GNRFET device (geometry + environment).
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// The channel ribbon.
    pub gnr: AGnr,
    /// Channel length in unit cells along transport (paper: 35 ≈ 15 nm).
    pub channel_cells: usize,
    /// Gate-oxide thickness \[nm\] (paper: 1.5).
    pub t_ox_nm: f64,
    /// Source/drain metal block length \[nm\].
    pub contact_nm: f64,
    /// Poisson grid spacing \[nm\].
    pub grid_h_nm: f64,
    /// Lattice temperature \[K\].
    pub temperature_k: f64,
    /// Wide-band Schottky contact coupling γ \[eV\].
    pub contact_gamma_ev: f64,
    /// Gate work-function offset \[V\]: shifts the effective gate voltage,
    /// the paper's V_T-engineering knob (§2, Fig. 2b).
    pub gate_offset_v: f64,
}

impl DeviceConfig {
    /// The paper's nominal device for GNR index `n`: 15 nm channel
    /// (35 unit cells), 1.5 nm SiO₂, double gate, mid-gap Schottky contacts.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Lattice`] for an invalid index.
    pub fn paper_nominal(n: usize) -> Result<Self, DeviceError> {
        Ok(DeviceConfig {
            gnr: AGnr::new(n)?,
            channel_cells: 35,
            t_ox_nm: 1.5,
            contact_nm: 1.5,
            grid_h_nm: 0.25,
            temperature_k: 300.0,
            contact_gamma_ev: 0.5,
            gate_offset_v: 0.0,
        })
    }

    /// A reduced-fidelity configuration for fast tests: shorter channel and
    /// coarser grid, same physics.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Lattice`] for an invalid index.
    pub fn test_small(n: usize) -> Result<Self, DeviceError> {
        Ok(DeviceConfig {
            gnr: AGnr::new(n)?,
            // ~10.7 nm: long enough that direct source-drain tunneling does
            // not swamp the Schottky-barrier behaviour.
            channel_cells: 25,
            t_ox_nm: 1.5,
            contact_nm: 1.0,
            grid_h_nm: 0.5,
            temperature_k: 300.0,
            contact_gamma_ev: 0.5,
            gate_offset_v: 0.0,
        })
    }

    /// Channel length in nm.
    pub fn channel_nm(&self) -> f64 {
        self.channel_cells as f64 * self.gnr.period_m() * 1e9
    }

    /// Grid cell counts `(nx, ny, nz)` implied by the geometry.
    pub fn grid_dims(&self) -> (usize, usize, usize) {
        let h = self.grid_h_nm;
        let cells = |nm: f64| -> usize { (nm / h).round().max(1.0) as usize };
        let nx = cells(self.contact_nm) * 2 + cells(self.channel_nm());
        // Width margin of >= 1 nm on each side of the widest ribbon.
        let w = self.gnr.width_nm();
        let ny = cells(w + 2.0);
        // gate | oxide | GNR plane | oxide | gate
        let nz = 1 + cells(self.t_ox_nm) + 1 + cells(self.t_ox_nm) + 1;
        (nx, ny, nz)
    }

    /// z-index of the GNR plane.
    pub fn gnr_plane_k(&self) -> usize {
        1 + (self.t_ox_nm / self.grid_h_nm).round() as usize
    }

    /// x-index range `[first, last]` of the channel region.
    pub fn channel_x_range(&self) -> (usize, usize) {
        let c = (self.contact_nm / self.grid_h_nm).round() as usize;
        let (nx, _, _) = self.grid_dims();
        (c, nx - c - 1)
    }

    /// Builds the Poisson problem for electrode potentials `(v_s, v_d, v_g)`
    /// volts. The gate electrode already includes the work-function offset.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn build_poisson(
        &self,
        v_s: f64,
        v_d: f64,
        v_g: f64,
    ) -> Result<PoissonProblem, DeviceError> {
        let (nx, ny, nz) = self.grid_dims();
        let grid = Grid3::new(nx, ny, nz, self.grid_h_nm)?;
        let mut p = PoissonProblem::new(grid);
        // Oxide everywhere in the stack interior.
        p.set_dielectric(
            Region::new((0, nx - 1), (0, ny - 1), (1, nz - 2)),
            EPS_R_SIO2,
        );
        let (ch0, ch1) = self.channel_x_range();
        let v_g_eff = v_g + self.gate_offset_v;
        // Double gate: bottom (k = 0) and top (k = nz-1) planes over the
        // channel footprint only.
        p.set_electrode(Region::new((ch0, ch1), (0, ny - 1), (0, 0)), v_g_eff);
        p.set_electrode(
            Region::new((ch0, ch1), (0, ny - 1), (nz - 1, nz - 1)),
            v_g_eff,
        );
        // Source and drain metal blocks fill the stack at the channel ends.
        if ch0 > 0 {
            p.set_electrode(Region::new((0, ch0 - 1), (0, ny - 1), (1, nz - 2)), v_s);
        }
        if ch1 + 1 < nx {
            p.set_electrode(
                Region::new((ch1 + 1, nx - 1), (0, ny - 1), (1, nz - 2)),
                v_d,
            );
        }
        Ok(p)
    }

    /// Samples the electrostatic potential along the ribbon axis: one value
    /// per channel-region grid column, at the ribbon plane and width centre.
    pub fn sample_along_channel(&self, sol: &gnr_poisson::PoissonSolution) -> Vec<f64> {
        let (ch0, ch1) = self.channel_x_range();
        let (_, ny, _) = self.grid_dims();
        let h = self.grid_h_nm;
        let y_mid = ny as f64 * h / 2.0;
        let z_gnr = (self.gnr_plane_k() as f64 + 0.5) * h;
        (ch0..=ch1)
            .map(|i| sol.potential_at((i as f64 + 0.5) * h, y_mid, z_gnr))
            .collect()
    }

    /// Electrode response profiles along the channel: the potential that a
    /// unit volt on (source, drain, gate) produces on the ribbon with all
    /// other electrodes grounded. By linearity of the Laplace problem,
    /// `φ(x) = g_s·V_S + g_d·V_D + g_g·(V_G + offset)` for any bias.
    ///
    /// # Errors
    ///
    /// Propagates Poisson failures.
    pub fn electrode_responses(&self) -> Result<ResponseProfiles, DeviceError> {
        // Unit-source response.
        let mut cfg = self.clone();
        cfg.gate_offset_v = 0.0;
        let limits = gnr_num::budget::ExecLimits::none();
        let mut g_s =
            cfg.sample_along_channel(&cfg.build_poisson(1.0, 0.0, 0.0)?.solve(None, &limits)?);
        let mut g_d =
            cfg.sample_along_channel(&cfg.build_poisson(0.0, 1.0, 0.0)?.solve(None, &limits)?);
        let mut g_g =
            cfg.sample_along_channel(&cfg.build_poisson(0.0, 0.0, 1.0)?.solve(None, &limits)?);
        // Pin the contact faces explicitly: the metal Fermi level clamps the
        // ribbon potential at the interfaces (mid-gap Schottky pinning), and
        // the half-cell-offset samples would otherwise miss the thin barrier
        // top at the contact.
        g_s.insert(0, 1.0);
        g_s.push(0.0);
        g_d.insert(0, 0.0);
        g_d.push(1.0);
        g_g.insert(0, 0.0);
        g_g.push(0.0);
        Ok(ResponseProfiles {
            x_step_nm: self.grid_h_nm,
            g_source: g_s,
            g_drain: g_d,
            g_gate: g_g,
        })
    }
}

/// Laplace response of the ribbon potential to unit electrode voltages,
/// sampled per grid column along the channel.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseProfiles {
    /// Spacing between samples \[nm\].
    pub x_step_nm: f64,
    /// Response to V_S = 1 V.
    pub g_source: Vec<f64>,
    /// Response to V_D = 1 V.
    pub g_drain: Vec<f64>,
    /// Response to V_G = 1 V.
    pub g_gate: Vec<f64>,
}

impl ResponseProfiles {
    /// Number of samples along the channel.
    pub fn len(&self) -> usize {
        self.g_gate.len()
    }

    /// `true` if the profile is empty (never for a valid device).
    pub fn is_empty(&self) -> bool {
        self.g_gate.is_empty()
    }

    /// The ribbon potential profile for bias `(v_s, v_d, v_g_eff)` \[V\].
    pub fn superpose(&self, v_s: f64, v_d: f64, v_g_eff: f64) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.g_source[i] * v_s + self.g_drain[i] * v_d + self.g_gate[i] * v_g_eff)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_geometry_matches_paper() {
        let cfg = DeviceConfig::paper_nominal(12).unwrap();
        assert!((cfg.channel_nm() - 14.9).abs() < 0.1);
        assert_eq!(cfg.t_ox_nm, 1.5);
        let (nx, ny, nz) = cfg.grid_dims();
        assert!(nx > 60 && ny >= 10 && nz == 15);
    }

    #[test]
    fn grid_regions_consistent() {
        let cfg = DeviceConfig::test_small(9).unwrap();
        let (nx, _, nz) = cfg.grid_dims();
        let (c0, c1) = cfg.channel_x_range();
        assert!(c0 > 0 && c1 < nx - 1);
        assert!(cfg.gnr_plane_k() > 0 && cfg.gnr_plane_k() < nz - 1);
    }

    #[test]
    fn responses_partition_unity_mid_channel() {
        let cfg = DeviceConfig::test_small(9).unwrap();
        let r = cfg.electrode_responses().unwrap();
        let mid = r.len() / 2;
        let total = r.g_source[mid] + r.g_drain[mid] + r.g_gate[mid];
        // With Neumann outer walls the three responses nearly partition
        // unity on the ribbon (small leakage through the side margins).
        assert!((total - 1.0).abs() < 0.05, "sum {total}");
        // Mid-channel is gate dominated in a 1.5 nm-oxide double gate.
        assert!(r.g_gate[mid] > 0.8, "gate control {}", r.g_gate[mid]);
    }

    #[test]
    fn responses_boundary_dominated_by_contacts() {
        let cfg = DeviceConfig::test_small(9).unwrap();
        let r = cfg.electrode_responses().unwrap();
        assert!(r.g_source[0] > 0.3, "source face {}", r.g_source[0]);
        assert!(r.g_drain[r.len() - 1] > 0.3);
        assert!(r.g_source[r.len() - 1] < 0.05);
        assert!(r.g_drain[0] < 0.05);
    }

    #[test]
    fn superposition_is_linear() {
        let cfg = DeviceConfig::test_small(9).unwrap();
        let r = cfg.electrode_responses().unwrap();
        let a = r.superpose(0.1, 0.5, 0.4);
        let b = r.superpose(0.2, 1.0, 0.8);
        for (x, y) in a.iter().zip(&b) {
            assert!((2.0 * x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn full_bias_poisson_matches_superposition() {
        // Laplace linearity: a direct solve at a bias point equals the
        // superposed unit responses.
        let cfg = DeviceConfig::test_small(9).unwrap();
        let r = cfg.electrode_responses().unwrap();
        let direct = cfg.sample_along_channel(
            &cfg.build_poisson(0.0, 0.5, 0.3)
                .unwrap()
                .solve(None, &gnr_num::budget::ExecLimits::none())
                .unwrap(),
        );
        let sup = r.superpose(0.0, 0.5, 0.3);
        // superpose() carries two pinned boundary samples; skip them.
        for (d, s) in direct.iter().zip(&sup[1..]) {
            assert!((d - s).abs() < 1e-6, "{d} vs {s}");
        }
    }

    #[test]
    fn thinner_oxide_improves_gate_control() {
        // The paper (§4) names oxide-thickness control as a variability
        // source alongside width: a thinner oxide must raise the gate's
        // share of the ribbon potential.
        let mut thin = DeviceConfig::test_small(12).unwrap();
        thin.t_ox_nm = 1.0;
        let mut thick = DeviceConfig::test_small(12).unwrap();
        thick.t_ox_nm = 2.0;
        let g_thin = thin.electrode_responses().unwrap();
        let g_thick = thick.electrode_responses().unwrap();
        let mid_thin = g_thin.g_gate[g_thin.len() / 2];
        let mid_thick = g_thick.g_gate[g_thick.len() / 2];
        assert!(
            mid_thin > mid_thick + 0.01,
            "gate control: t_ox=1nm {mid_thin:.3} vs t_ox=2nm {mid_thick:.3}"
        );
    }

    #[test]
    fn gate_offset_shifts_effective_gate() {
        let mut cfg = DeviceConfig::test_small(9).unwrap();
        cfg.gate_offset_v = 0.2;
        let direct = cfg.sample_along_channel(
            &cfg.build_poisson(0.0, 0.0, 0.1)
                .unwrap()
                .solve(None, &gnr_num::budget::ExecLimits::none())
                .unwrap(),
        );
        let r = cfg.electrode_responses().unwrap();
        let sup = r.superpose(0.0, 0.0, 0.1 + 0.2);
        for (d, s) in direct.iter().zip(&sup[1..]) {
            assert!((d - s).abs() < 1e-6);
        }
    }
}
